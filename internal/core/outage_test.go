package core_test

// Integration tests of a whole-controller outage (outage.go): messages
// park while the controller is down, recovery resyncs every switch and
// drains the queue in arrival order, and the queue is bounded.

import (
	"fmt"
	"slices"
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

// componentHealth returns the named component of the /health rollup.
func componentHealth(t *testing.T, n *testbed.Net, name string) monitor.HealthComponent {
	t.Helper()
	for _, hc := range n.Controller.HealthComponents() {
		if hc.Name == name {
			return hc
		}
	}
	t.Fatalf("no %s health component", name)
	return monitor.HealthComponent{}
}

// TestControllerOutage takes the controller down mid-workload: messages
// park while it is down, recovery resyncs every switch from its shadow
// table and drains the queue, no flow is lost, the outage is charged to
// policy-violation time, the keepalive never mistakes the outage for
// dead switches, and each drained setup's span covers the time it spent
// parked.
func TestControllerOutage(t *testing.T) {
	fo := obs.NewFlowObs(0)
	n, clients, srv := outageNet(t, 6, testbed.Options{
		Config: core.Config{FlowIdle: time.Minute, Obs: fo},
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
	if hc := componentHealth(t, n, "controller"); hc.Status != "down" {
		t.Fatalf("controller health during the outage: %+v", hc)
	}
	if err := n.Run(300 * time.Millisecond); err != nil { // recovery + drain
		t.Fatal(err)
	}

	st := n.Controller.Stats()
	if want := uint64(len(n.Switches)); st.Resyncs != want {
		t.Fatalf("resyncs=%d, want every switch (%d)", st.Resyncs, want)
	}
	if delivered != sent {
		t.Fatalf("flows lost across the outage: %d/%d", delivered, sent)
	}
	if got := n.Controller.PolicyViolationTime(); got < outage || got > outage+50*time.Millisecond {
		t.Fatalf("policy-violation time %v, want the %v outage", got, outage)
	}
	if downs := n.Store.Count(monitor.EventSwitchDown); downs != 0 || st.ParkedDrops != 0 {
		t.Fatalf("outage tripped the keepalive or the bound: %d switch-downs, %d drops",
			downs, st.ParkedDrops)
	}
	if n.Store.Count(monitor.EventControllerDown) != 1 || n.Store.Count(monitor.EventControllerUp) != 1 {
		t.Fatalf("events: down=%d up=%d",
			n.Store.Count(monitor.EventControllerDown), n.Store.Count(monitor.EventControllerUp))
	}
	if hc := componentHealth(t, n, "controller"); hc.Status != "ok" || hc.Detail != "0 msgs parked, 0 dropped" {
		t.Fatalf("controller health after recovery: %+v", hc)
	}
	drained := 0
	for _, sp := range fo.Spans(0, false) {
		if sp.Start < down || sp.Start >= up {
			continue
		}
		drained++
		if d := sp.Total(); d < up-sp.Start {
			t.Fatalf("span %d arrived at %v, total %v does not cover parking until %v", sp.ID, sp.Start, d, up)
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
	if hc := componentHealth(t, n, "controller"); hc.Status != "down" || hc.Detail != fmt.Sprintf("%d msgs parked, %d dropped", parkCap, arrived-parkCap) {
		t.Fatalf("controller health at the bound: %+v", hc)
	}

	n.Chaos.Schedule(chaos.NewPlan().ControllerUp(n.Eng.Now()))
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if hc := componentHealth(t, n, "controller"); hc.Status != "ok" || hc.Detail != fmt.Sprintf("0 msgs parked, %d dropped", arrived-parkCap) {
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

// TestOutageFindsPipelineBusy takes the controller down while the ingress
// pipeline (PacketInCost) holds a backlog of first packets and is serving
// one of them; more first packets arrive during the outage. The pipeline
// holds its backlog in place, the interrupted packet-in back at its head,
// and the arrivals park behind it, so: nothing is set up and nothing is
// sent while the controller is down, no setup runs before the drain,
// every flow is set up, the setups run in arrival order, each span
// starts at its packet-in's arrival, and one service chain completes the
// drained setups one PacketInCost apart.
func TestOutageFindsPipelineBusy(t *testing.T) {
	fo := obs.NewFlowObs(0)
	n, clients, srv := outageNet(t, 4, testbed.Options{
		Config: core.Config{FlowIdle: time.Minute, PacketInCost: time.Millisecond, Obs: fo},
	})
	defer n.Shutdown()
	delivered := 0
	srv.HandleUDP(9000, func(*netpkt.Packet) { delivered++ })

	// Six first packets 100 µs apart, then the failure 2.5 ms into the
	// burst, with the pipeline serving its third packet-in and holding
	// three more; four more first packets during the outage, the first
	// parked before the pipeline has served the rest.
	t0 := n.Eng.Now() + time.Millisecond
	sentAt := map[uint16]time.Duration{}
	send := func(i int, at time.Duration) {
		port := uint16(31000 + i)
		sentAt[port] = at
		c := clients[i%len(clients)]
		n.Eng.At(at, func() { c.SendUDP(serverIP, port, 9000, []byte("x"), 0) })
	}
	for i := 0; i < 6; i++ {
		send(i, t0+time.Duration(i)*100*time.Microsecond)
	}
	down, up := t0+2500*time.Microsecond, t0+30*time.Millisecond
	for i := 6; i < 10; i++ {
		send(i, down+300*time.Microsecond+time.Duration(i-6)*time.Millisecond)
	}
	n.Chaos.Schedule(chaos.NewPlan().ControllerDown(down).ControllerUp(up))
	start := n.Controller.Stats()
	var atDown, beforeUp core.Stats
	n.Eng.At(down, func() { atDown = n.Controller.Stats() })
	n.Eng.At(up-time.Microsecond, func() { beforeUp = n.Controller.Stats() })
	if err := n.Run(up - n.Eng.Now() + 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	if routed := atDown.FlowsRouted - start.FlowsRouted; routed != 2 {
		t.Fatalf("%d of 6 burst flows routed before the failure, want 2: the pipeline was not mid-burst", routed)
	}
	if beforeUp.FlowsRouted != atDown.FlowsRouted || beforeUp.FlowModsSent != atDown.FlowModsSent ||
		beforeUp.PacketOuts != atDown.PacketOuts {
		t.Fatalf("the controller worked while down: at Down %+v, before Up %+v", atDown, beforeUp)
	}
	if parked := n.Controller.Stats().ParkedMsgs; parked != 8 {
		t.Fatalf("%d packet-ins parked, want the 4 the pipeline held and the 4 that arrived during the outage", parked)
	}
	if delivered != len(sentAt) {
		t.Fatalf("flows lost across the outage: %d/%d", delivered, len(sentAt))
	}

	var drained time.Duration // when the last switch resync confirmed
	for _, ev := range n.Store.Events(monitor.Filter{Type: monitor.EventSwitchResync}) {
		drained = max(drained, ev.At)
	}
	var order []uint16
	for _, ev := range n.Store.Events(monitor.Filter{Type: monitor.EventFlowStart}) {
		if ev.FlowKey == nil || sentAt[ev.FlowKey.SrcPort] == 0 {
			continue
		}
		if ev.At > down && ev.At < drained {
			t.Fatalf("flow %d set up at %v, between the failure at %v and the drain at %v",
				ev.FlowKey.SrcPort, ev.At, down, drained)
		}
		order = append(order, ev.FlowKey.SrcPort)
	}
	if len(order) != len(sentAt) {
		t.Fatalf("%d flow-start events, want %d", len(order), len(sentAt))
	}
	for i := 1; i < len(order); i++ {
		if sentAt[order[i]] < sentAt[order[i-1]] {
			t.Fatalf("setups out of arrival order: %v", order)
		}
	}

	var lag time.Duration // the path from a client to the controller
	var ends []time.Duration
	for _, sp := range fo.Spans(0, false) {
		sent, ok := sentAt[sp.Key.SrcPort]
		if !ok {
			continue
		}
		if sp.End > drained {
			ends = append(ends, sp.End)
		}
		if lag == 0 {
			lag = sp.Start - sent
		}
		if sp.Start-sent != lag || lag <= 0 || lag >= time.Millisecond {
			t.Fatalf("flow %d: span starts %v after its send, want its arrival (%v after)",
				sp.Key.SrcPort, sp.Start-sent, lag)
		}
	}
	slices.Sort(ends)
	for i := 1; i < len(ends); i++ {
		if ends[i]-ends[i-1] != time.Millisecond {
			t.Fatalf("drained setups end at %v, want one PacketInCost apart", ends)
		}
	}
}

// TestOutageAdmitsOnce takes the controller down while overload
// protection has admitted a burst of first packets from one legitimate
// client, within its source budget, and the pipeline is still serving
// it. What the pipeline held at the failure is not admitted again at
// the drain, so the client is neither shed nor suppressed.
func TestOutageAdmitsOnce(t *testing.T) {
	n, clients, srv := outageNet(t, 1, testbed.Options{Config: core.Config{
		FlowIdle: time.Minute, PacketInCost: time.Millisecond, OverloadProtection: true,
	}})
	defer n.Shutdown()
	delivered := 0
	srv.HandleUDP(9000, func(*netpkt.Packet) { delivered++ })

	const burst = 40 // first packets, within the 50-token source burst
	t0 := n.Eng.Now() + time.Millisecond
	for i := 0; i < burst; i++ {
		port := uint16(32000 + i)
		n.Eng.At(t0+time.Duration(i)*10*time.Microsecond, func() {
			clients[0].SendUDP(serverIP, port, 9000, []byte("x"), 0)
		})
	}
	down := t0 + 2500*time.Microsecond
	up := down + 30*time.Millisecond
	n.Chaos.Schedule(chaos.NewPlan().ControllerDown(down).ControllerUp(up))
	start := n.Controller.Stats()
	if err := n.Run(up - n.Eng.Now() + 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	if shed := n.Controller.Stats().PacketInsShed - start.PacketInsShed; delivered != burst || shed != 0 {
		t.Fatalf("delivered %d/%d, shed %d: the drain admitted the held burst again", delivered, burst, shed)
	}
	if sup := n.Store.Count(monitor.EventSuppress); sup != 0 {
		t.Fatalf("%d suppression entries against a legitimate sender", sup)
	}
}
