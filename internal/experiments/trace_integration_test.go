package experiments

import (
	"testing"
	"time"

	"livesec/internal/chaos"
	"livesec/internal/core"
	"livesec/internal/firewall"
	"livesec/internal/netpkt"
	"livesec/internal/obs"
	"livesec/internal/testbed"
)

// The tracing property: a re-steered flow setup that triggers a firewall
// state handoff yields ONE causally-linked trace tree — the setup span as
// root and the STATE_INSTALL handoff as its child — under a single
// TraceID, reachable via FlowObs.Trace.
func TestHandoffSingleTrace(t *testing.T) {
	serverIP := netpkt.IP(166, 111, 99, 1)
	clientIP := netpkt.IP(10, 99, 0, 1)
	fo := obs.NewFlowObs(0)
	n, err := testbed.Build(testbed.Spec{
		Options: testbed.Options{Seed: 99, Policies: e12Policies(serverIP), Monitor: true, Chaos: true,
			Config: core.Config{FlowIdle: time.Minute, Obs: fo}},
		Switches: []testbed.SwitchSpec{{Name: "tr-cli"}, {Name: "tr-srv"}, {Name: "tr-fw1"}, {Name: "tr-fw2"}},
		Nodes: []testbed.Node{
			testbed.HostNode("tr-cli", "client", clientIP, testbed.Wired),
			testbed.HostNode("tr-srv", "server", serverIP, testbed.Server),
			{Element: &testbed.ElementSpec{Switch: "tr-fw1", Inspector: firewall.New(firewall.Options{})}}, // SE 1
		},
		Settle: 600 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()
	client, server := n.Hosts[0], n.Hosts[1]
	run := func(d time.Duration) {
		t.Helper()
		if err := n.Run(d); err != nil {
			t.Fatal(err)
		}
	}
	client.SendUDP(serverIP, 9, 9, []byte("w"), 0)
	server.SendUDP(clientIP, 9, 9, []byte("w"), 0)
	run(200 * time.Millisecond)

	// Establish a session through SE 1 so the firewall holds state.
	client.Send(e12Seg(client, server, 41000, 80, 1, true, false, false))
	run(50 * time.Millisecond)
	server.Send(e12Seg(server, client, 80, 41000, 1, true, true, false))
	run(50 * time.Millisecond)
	client.Send(e12Seg(client, server, 41000, 80, 2, false, true, false))
	run(50 * time.Millisecond)

	// Bring up the successor, crash SE 1, let it expire; the next
	// mid-stream segment re-steers through SE 2 and migrates state.
	n.AddElement(n.Switches[3], firewall.New(firewall.Options{}), 0) // SE 2
	run(600 * time.Millisecond)
	n.Chaos.Schedule(chaos.NewPlan().SECrash(n.Eng.Now(), 1))
	run(2600 * time.Millisecond)
	client.Send(e12Seg(client, server, 41000, 80, 3, false, true, false))
	run(300 * time.Millisecond)

	if ok := n.Controller.Stats().FWHandoffOK; ok == 0 {
		t.Fatal("no successful firewall handoff; the scenario did not re-steer")
	}

	// Find the handoff child and walk its whole trace.
	var fwChild obs.Span
	for _, sp := range fo.Spans(0, false) {
		if sp.Kind == obs.KindFWInstall {
			fwChild = sp
			break
		}
	}
	if fwChild.ID == 0 {
		t.Fatal("no fw_install span recorded")
	}
	if fwChild.TraceID == 0 || fwChild.ParentID == 0 {
		t.Fatalf("fw_install span not parented: %+v", fwChild)
	}
	tree := fo.Trace(fwChild.TraceID)
	kinds := map[obs.SpanKind]int{}
	var root obs.Span
	for _, sp := range tree {
		if sp.TraceID != fwChild.TraceID {
			t.Fatalf("span %d in tree has TraceID %d, want %d", sp.ID, sp.TraceID, fwChild.TraceID)
		}
		kinds[sp.Kind]++
		if sp.Kind == obs.KindSetup {
			root = sp
		}
	}
	if root.ID == 0 {
		t.Fatalf("trace %d has no setup root (kinds %v)", fwChild.TraceID, kinds)
	}
	if root.ID != fwChild.TraceID || root.ParentID != 0 {
		t.Fatalf("setup span is not the trace root: %+v", root)
	}
	if kinds[obs.KindSetup] != 1 || kinds[obs.KindFWInstall] == 0 {
		t.Fatalf("trace %d: want one setup root and a fw_install child, got kinds %v", fwChild.TraceID, kinds)
	}
	// Every non-root span must hang off the setup root.
	for _, sp := range tree {
		if sp.Kind != obs.KindSetup && sp.ParentID != root.ID {
			t.Fatalf("span %d (kind %s) parent %d, want root %d", sp.ID, sp.Kind, sp.ParentID, root.ID)
		}
	}
	t.Logf("trace %d: %d spans, kinds %v", fwChild.TraceID, len(tree), kinds)
}
