package core_test

// Integration tests of a whole-controller outage (outage.go): messages
// park while the controller is down, recovery resyncs every switch and
// drains the queue in arrival order, and the queue is bounded.

import (
	"fmt"
	"testing"
	"time"

	"livesec/internal/chaos"
	"livesec/internal/core"
	"livesec/internal/host"
	"livesec/internal/monitor"
	"livesec/internal/netpkt"
	"livesec/internal/obs"
	"livesec/internal/testbed"
)

// parkCap is core's maxParked, the parked queue's bound.
const parkCap = 16384

// outageNet builds clients on nClients separate switches and a server on
// one more, with the fault injector, and warms every attachment point.
func outageNet(t *testing.T, nClients int, opts testbed.Options) (*testbed.Net, []*host.Host, *host.Host) {
	t.Helper()
	opts.Monitor, opts.Chaos = true, true
	n := testbed.New(opts)
	clients := make([]*host.Host, nClients)
	for i := range clients {
		sw := n.AddOvS(fmt.Sprintf("ovs%d", i+1))
		clients[i] = n.AddWiredUser(sw, fmt.Sprintf("c%d", i), netpkt.IP(10, 0, 1, byte(i+1)))
	}
	srv := n.AddServer(n.AddOvS("ovssrv"), "server", serverIP)
	if err := n.Discover(); err != nil {
		t.Fatal(err)
	}
	for _, c := range clients {
		c.SendUDP(serverIP, 19000, 9001, []byte("warm"), 0)
	}
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	return n, clients, srv
}

// controllerHealth returns the /health rollup's controller component.
func controllerHealth(t *testing.T, n *testbed.Net) monitor.HealthComponent {
	t.Helper()
	for _, hc := range n.Controller.HealthComponents() {
		if hc.Name == "controller" {
			return hc
		}
	}
	t.Fatal("no controller health component")
	return monitor.HealthComponent{}
}

// TestControllerOutage takes the controller down mid-workload: messages
// park while it is down, recovery resyncs every switch from its shadow
// table and drains the queue, no flow is lost, the outage is charged to
// policy-violation time, the keepalive never mistakes the outage for
// dead switches, and each drained setup's queue_wait covers the time it
// spent parked.
func TestControllerOutage(t *testing.T) {
	fo := obs.NewFlowObs(0)
	n, clients, srv := outageNet(t, 6, testbed.Options{
		Config: core.Config{Keepalive: true, FlowIdle: time.Minute, Obs: fo},
	})
	defer n.Shutdown()

	delivered := 0
	srv.HandleUDP(9000, func(*netpkt.Packet) { delivered++ })

	const outage = 100 * time.Millisecond
	down := n.Eng.Now() + time.Millisecond
	up := down + outage
	n.Chaos.Schedule(chaos.NewPlan().
		ControllerDown(down).
		ControllerDown(down + time.Millisecond). // ignored: already down
		ControllerUp(up))
	if err := n.Run(2 * time.Millisecond); err != nil {
		t.Fatal(err)
	}

	// Fresh flows from every client during the outage: every packet-in
	// parks.
	sent := 0
	for i, c := range clients {
		c.SendUDP(serverIP, uint16(30000+i), 9000, []byte("x"), 0)
		sent++
	}
	if err := n.Run(50 * time.Millisecond); err != nil { // still down
		t.Fatal(err)
	}
	if st := n.Controller.Stats(); st.ParkedMsgs == 0 {
		t.Fatal("no messages parked during the outage")
	}
	if delivered != 0 {
		t.Fatalf("%d flows set up by a controller that is down", delivered)
	}
	if hc := controllerHealth(t, n); hc.Status != "down" {
		t.Fatalf("controller health during the outage: %+v", hc)
	}
	if err := n.Run(300 * time.Millisecond); err != nil { // recovery + drain
		t.Fatal(err)
	}

	st := n.Controller.Stats()
	if st.Outages != 1 {
		t.Fatalf("outages=%d, want 1", st.Outages)
	}
	if want := uint64(len(n.Switches)); st.Resyncs != want {
		t.Fatalf("resyncs=%d, want every switch (%d)", st.Resyncs, want)
	}
	if delivered != sent {
		t.Fatalf("flows lost across the outage: %d/%d", delivered, sent)
	}
	if got := n.Controller.PolicyViolationTime(); got < outage || got > outage+50*time.Millisecond {
		t.Fatalf("policy-violation time %v, want the %v outage", got, outage)
	}
	if st.SwitchDownEvents != 0 || st.ParkedDrops != 0 {
		t.Fatalf("outage tripped the keepalive or the bound: %d switch-downs, %d drops",
			st.SwitchDownEvents, st.ParkedDrops)
	}
	if n.Store.Count(monitor.EventControllerDown) != 1 || n.Store.Count(monitor.EventControllerUp) != 1 {
		t.Fatalf("events: down=%d up=%d",
			n.Store.Count(monitor.EventControllerDown), n.Store.Count(monitor.EventControllerUp))
	}
	if hc := controllerHealth(t, n); hc.Status != "ok" || hc.Detail != "0 msgs parked" {
		t.Fatalf("controller health after recovery: %+v", hc)
	}
	drained := 0
	for _, sp := range fo.Spans(0, false) {
		if sp.Kind != obs.KindSetup || sp.Start < down || sp.Start >= up {
			continue
		}
		drained++
		if qw := sp.Stage(obs.StageQueueWait); qw < up-sp.Start {
			t.Fatalf("span %d arrived at %v, queue_wait %v does not cover parking until %v", sp.ID, sp.Start, qw, up)
		}
	}
	if drained < sent {
		t.Fatalf("%d setup spans started during the outage, want %d", drained, sent)
	}
}

// TestParkedQueueBounded floods novel flows into an outage that the plan
// never ends: the parked queue stops at its bound and every message past
// it is dropped and counted. Once the controller recovers the queue is
// empty and a fresh flow is set up.
func TestParkedQueueBounded(t *testing.T) {
	n, clients, srv := outageNet(t, 2, testbed.Options{Config: core.Config{FlowIdle: time.Minute}})
	defer n.Shutdown()
	attacker, client := clients[0], clients[1]
	attacker.SetFloodTarget(serverIP)
	flooder := n.RegisterFlooder(attacker)
	packetIns := func() (total uint64) {
		for _, sw := range n.Switches {
			total += sw.PacketInsSent
		}
		return total
	}

	before := packetIns()
	start := n.Eng.Now()
	n.Chaos.Schedule(chaos.NewPlan().
		ControllerDown(start+time.Millisecond).
		FloodStart(start+2*time.Millisecond, flooder, 20000).
		FloodStop(start+time.Second, flooder))
	if err := n.Run(time.Second + 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	arrived := packetIns() - before
	if arrived <= parkCap {
		t.Fatalf("flood raised %d packet-ins, not past the %d bound", arrived, parkCap)
	}
	st := n.Controller.Stats()
	if st.ParkedMsgs != parkCap || st.ParkedDrops != arrived-parkCap {
		t.Fatalf("parked %d, dropped %d of %d arrivals; want %d and %d",
			st.ParkedMsgs, st.ParkedDrops, arrived, parkCap, arrived-parkCap)
	}
	if hc := controllerHealth(t, n); hc.Status != "down" || hc.Detail != fmt.Sprintf("%d msgs parked", parkCap) {
		t.Fatalf("controller health at the bound: %+v", hc)
	}

	n.Chaos.Schedule(chaos.NewPlan().ControllerUp(n.Eng.Now()))
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if hc := controllerHealth(t, n); hc.Status != "ok" || hc.Detail != "0 msgs parked" {
		t.Fatalf("controller health after recovery: %+v", hc)
	}
	delivered := 0
	srv.HandleUDP(9000, func(*netpkt.Packet) { delivered++ })
	client.SendUDP(serverIP, 30000, 9000, []byte("fresh"), 0)
	if err := n.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatal("no fresh flow set up after recovery")
	}
}
