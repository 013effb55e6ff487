package testbed

import (
	"testing"
	"time"

	"livesec/internal/host"
	"livesec/internal/monitor"
	"livesec/internal/netpkt"
	"livesec/internal/policy"
	"livesec/internal/seproto"
	"livesec/internal/workload"
)

// TestFullFITAtScale boots the paper's complete deployment — 10 OvS,
// 20 OF Wi-Fi APs, 200 service elements, 50 users — drives a mixed
// workload with embedded attacks, and asserts the whole system behaves:
// full-mesh discovery, every element registered, all users served,
// every attack detected and blocked. Guarded by -short because it
// simulates ~4 virtual seconds of a 230-device network.
func TestFullFITAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale deployment (use without -short)")
	}
	pt := policy.NewTable(policy.Allow)
	if err := pt.Add(&policy.Rule{
		Name: "inspect-internet", Priority: 10,
		Match:  policy.Match{DstIP: policy.HostIP(GatewayIP)},
		Action: policy.Chain,
		Services: []seproto.ServiceType{
			seproto.ServiceL7, seproto.ServiceIDS,
		},
	}); err != nil {
		t.Fatal(err)
	}
	f, err := BuildFIT(FullFIT(), Options{Monitor: true, Policies: pt, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown()
	if err := f.Run(700 * time.Millisecond); err != nil {
		t.Fatal(err)
	}

	fo := FullFIT()
	if got := f.Controller.NumSwitches(); got != fo.OvS+fo.APs {
		t.Fatalf("switches = %d, want %d", got, fo.OvS+fo.APs)
	}
	if !f.Controller.FullMesh() {
		t.Fatal("30-switch deployment did not form a full mesh")
	}
	if got := len(f.Controller.Elements()); got != 200 {
		t.Fatalf("elements online = %d, want 200", got)
	}

	// Every user fetches from the gateway; two attack.
	workload.HTTPServer(f.Gateway, 80, 20_000)
	users := append(append([]*host.Host{}, f.WiredUsers...), f.WirelessUsers...)
	served := make([]int, len(users))
	for i, u := range users {
		i, u := i, u
		sp := uint16(40000 + i)
		u.HandleTCP(sp, func(*netpkt.Packet) { served[i]++ })
		u.SendTCP(GatewayIP, sp, 80, []byte("GET / HTTP/1.1\r\n\r\n"), 0)
	}
	f.Eng.Schedule(time.Second, func() {
		_ = workload.SendAttack(users[5], GatewayIP, "sql-injection", 61000)
		_ = workload.SendAttack(users[25], GatewayIP, "c2-beacon", 61001)
	})
	if err := f.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}

	gwStats := f.Gateway.Stats()
	t.Logf("controller: %+v", f.Controller.Stats())
	t.Logf("gateway: %+v", gwStats)
	zero := 0
	for i, n := range served {
		if n == 0 {
			zero++
			t.Logf("user %d: resolvedGateway=%v stats=%+v", i, users[i].Resolved(GatewayIP), users[i].Stats())
		}
	}
	if zero > 0 {
		t.Fatalf("%d users never served", zero)
	}
	if got := f.Store.Count(monitor.EventAttack); got != 2 {
		t.Fatalf("attacks detected = %d, want 2", got)
	}
	if f.Controller.Stats().DropRules < 2 {
		t.Fatalf("drop rules = %d, want ≥2", f.Controller.Stats().DropRules)
	}
	// The security workload actually spread over the pool.
	busyIDS := 0
	for _, el := range f.IDSElements {
		if el.Stats().Packets > 0 {
			busyIDS++
		}
	}
	if busyIDS < 40 {
		t.Fatalf("only %d/160 IDS elements saw traffic; balancing broken", busyIDS)
	}
	// Every user was identified by the L7 stage.
	if apps := f.Store.UserApps(); len(apps) < len(users) {
		t.Fatalf("only %d/%d users identified", len(apps), len(users))
	}
}
