package testbed

import (
	"runtime"
	"testing"
	"time"

	"livesec/internal/netpkt"
	"livesec/internal/policy"
	"livesec/internal/seproto"
	"livesec/internal/workload"
)

func TestScaledFITBuildsAndDiscovers(t *testing.T) {
	f, err := BuildFIT(ScaledFIT(), Options{Monitor: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown()
	fo := ScaledFIT()
	if got := f.Controller.NumSwitches(); got != fo.OvS+fo.APs {
		t.Fatalf("switches = %d, want %d", got, fo.OvS+fo.APs)
	}
	if !f.Controller.FullMesh() {
		t.Fatal("FIT access layer is not a full mesh")
	}
	// Elements come online within a heartbeat.
	if err := f.Run(600 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	wantEls := (fo.IDSHosts + fo.L7Hosts) * fo.VMsPerHost
	if got := len(f.Controller.Elements()); got != wantEls {
		t.Fatalf("registered elements = %d, want %d", got, wantEls)
	}
	ids, l7 := 0, 0
	for _, el := range f.Controller.Elements() {
		switch el.Service {
		case seproto.ServiceIDS:
			ids++
		case seproto.ServiceL7:
			l7++
		}
	}
	if ids != fo.IDSHosts*fo.VMsPerHost || l7 != fo.L7Hosts*fo.VMsPerHost {
		t.Fatalf("element split ids=%d l7=%d", ids, l7)
	}
}

func TestFITUserToGatewayThroughIDSChain(t *testing.T) {
	pt := policy.NewTable(policy.Allow)
	if err := pt.Add(&policy.Rule{
		Name: "inspect-internet", Priority: 10,
		Match:  policy.Match{DstIP: policy.HostIP(GatewayIP)},
		Action: policy.Chain, Services: []seproto.ServiceType{seproto.ServiceIDS},
	}); err != nil {
		t.Fatal(err)
	}
	f, err := BuildFIT(ScaledFIT(), Options{Monitor: true, Policies: pt})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown()
	if err := f.Run(600 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	workload.HTTPServer(f.Gateway, 80, 10_000)
	u := f.WiredUsers[0]
	got := 0
	u.HandleTCP(50000, func(*netpkt.Packet) { got++ })
	u.SendTCP(GatewayIP, 50000, 80, []byte("GET / HTTP/1.1\r\n\r\n"), 0)
	if err := f.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got == 0 {
		t.Fatal("no HTTP response through the IDS chain")
	}
	inspected := uint64(0)
	for _, el := range f.IDSElements {
		inspected += el.Stats().Packets
	}
	if inspected == 0 {
		t.Fatal("no element inspected the flow")
	}
	if f.Controller.Stats().FlowsChained == 0 {
		t.Fatal("flow was not chained")
	}
}

func TestWirelessUserPathWorks(t *testing.T) {
	f, err := BuildFIT(ScaledFIT(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown()
	u := f.WirelessUsers[0]
	got := 0
	f.Gateway.HandleUDP(53, func(*netpkt.Packet) { got++ })
	u.SendUDP(GatewayIP, 5353, 53, []byte("query"), 0)
	if err := f.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("wireless delivery failed (%d)", got)
	}
}

func TestBuildFITRejectsBadSplit(t *testing.T) {
	fo := ScaledFIT()
	fo.IDSHosts = fo.OvS + 1
	if _, err := BuildFIT(fo, Options{}); err == nil {
		t.Fatal("invalid host split accepted")
	}
}

// The full deployment's 160 IDS elements inspect over one compiled rule
// set: building and discovering it allocates about 3.5 MB (1 MB of it
// the build). Compiling the community rules per element cost about
// 0.4 MB each — 66 MB — most of it the automata every element then kept
// resident.
func TestBuildFITCompilesRulesOnce(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f, err := BuildFIT(FullFIT(), Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if len(f.IDSElements) != 160 {
		t.Fatalf("%d IDS elements, want 160", len(f.IDSElements))
	}
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb > 8 {
		t.Fatalf("BuildFIT(FullFIT()) allocated %.1f MB; more than one compiled rule set?", mb)
	}
}

// TestShutdownQuiesces runs an idle deployment, shuts it down and runs
// the engine to quiescence: no periodic activity may outlive Shutdown,
// the controller's alert tick included.
func TestShutdownQuiesces(t *testing.T) {
	f, err := BuildFIT(ScaledFIT(), Options{Monitor: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(600 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	f.Shutdown()
	if err := f.Eng.RunAll(1_000_000); err != nil {
		t.Fatalf("the engine did not quiesce after Shutdown: %v (%d events pending)", err, f.Eng.Pending())
	}
	if p := f.Eng.Pending(); p != 0 {
		t.Fatalf("%d events pending after Shutdown", p)
	}
}
