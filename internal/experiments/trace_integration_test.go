package experiments

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
	"time"

	"livesec/internal/chaos"
	"livesec/internal/core"
	"livesec/internal/firewall"
	"livesec/internal/monitor"
	"livesec/internal/netpkt"
	"livesec/internal/obs"
	"livesec/internal/testbed"
)

// A re-steered flow setup that triggers a firewall state handoff logs
// one fw-handoff event naming that flow: its FlowKey is the setup span's
// Key, so /events?user= finds it by the client's MAC, and the setup span
// itself is one /traces?span= lookup away.
func TestHandoffEventNamesItsFlow(t *testing.T) {
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

	// The re-steered setup: the client's flow chained through SE 2.
	var setup obs.Span
	for _, sp := range fo.Spans(0, false) {
		if sp.Key.SrcPort == 41000 && sp.NumElements > 0 && sp.Elements[0] == 2 {
			setup = sp
			break
		}
	}
	if setup.ID == 0 {
		t.Fatal("no setup span steered the client's flow through SE 2")
	}
	evs := n.Store.Events(monitor.Filter{Type: monitor.EventFWHandoff})
	if len(evs) != 1 {
		t.Fatalf("%d fw-handoff events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.FlowKey == nil || *ev.FlowKey != setup.Key {
		t.Fatalf("fw-handoff event %+v does not carry the setup's flow %v", ev, setup.Key)
	}
	found := false
	for _, e := range n.Store.Events(monitor.Filter{User: client.MAC.String()}) {
		found = found || e.Seq == ev.Seq
	}
	if !found {
		t.Fatalf("events of user %s do not include the fw-handoff event %+v", client.MAC, ev)
	}

	rec := httptest.NewRecorder()
	n.Controller.APIHandler(func(f func()) { f() }).ServeHTTP(rec,
		httptest.NewRequest("GET", "/traces?span="+strconv.FormatUint(setup.ID, 10), nil))
	var tr monitor.TracesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatalf("/traces: %v (%s)", err, rec.Body)
	}
	if len(tr.Spans) != 1 || !reflect.DeepEqual(tr.Spans[0], setup.View()) {
		t.Fatalf("/traces?span=%d returned %+v, want exactly %+v", setup.ID, tr.Spans, setup.View())
	}
}
