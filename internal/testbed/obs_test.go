package testbed

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"livesec/internal/core"
	"livesec/internal/netpkt"
	"livesec/internal/obs"
)

// obsNet builds a two-switch, two-user deployment with the given
// options, runs a short ping workload, and returns the net.
func obsNet(t *testing.T, opts Options) *Net {
	t.Helper()
	if opts.Seed == 0 {
		opts.Seed = 42
	}
	n := New(opts)
	s1 := n.AddOvS("s1")
	s2 := n.AddOvS("s2")
	a := n.AddWiredUser(s1, "a", netpkt.IP(10, 0, 0, 1))
	b := n.AddWiredUser(s2, "b", netpkt.IP(10, 0, 0, 2))
	if err := n.Discover(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Shutdown)
	for i := 0; i < 3; i++ {
		a.Ping(b.IP, 1, uint16(i+1), func(time.Duration) {})
		if err := n.Run(20 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

func TestObsSpansAndMetrics(t *testing.T) {
	n := obsNet(t, Options{})
	fo := n.Controller.Obs()

	if fo.Recorded() == 0 {
		t.Fatal("no spans recorded")
	}
	completed := fo.CompletedSetups()
	if completed == 0 {
		t.Fatal("no completed setups")
	}
	// The core invariant: the setup-latency histogram observed exactly
	// once per completed setup, as the controller's own accounting counts
	// them.
	stats := n.Controller.Stats()
	wantCompleted := stats.FlowsRouted + stats.FlowsChained
	if completed != wantCompleted {
		t.Fatalf("completed setups = %d, controller routed+chained = %d", completed, wantCompleted)
	}

	// Two flows of one selector cache its plan (on its second sighting);
	// the cache gauge reads the occupancy.
	a, b := n.Hosts[0], n.Hosts[1]
	for sp := uint16(7000); sp < 7002; sp++ {
		a.SendUDP(b.IP, sp, 9000, []byte("x"), 0)
	}
	if err := n.Run(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	plans, ok := fo.Registry.Value("livesec_cache_entries", obs.L("level", "plan"))
	if !ok || plans == 0 {
		t.Fatalf("repeat flows cached %v plans (registered %v)", plans, ok)
	}
	text := fo.Registry.Text()
	if err := obs.LintText(text); err != nil {
		t.Fatalf("registry exposition fails lint: %v", err)
	}
	for _, want := range []string{
		"livesec_packet_ins_total",
		"livesec_flow_setup_seconds_bucket",
		`livesec_switch_lookups_total{switch="s1"}`,
		`livesec_switch_lookups_total{switch="s2"}`,
		"livesec_sim_events_processed_total",
		"livesec_policy_rules",
		"livesec_policy_compile_seconds_bucket",
		"livesec_intents",
		fmt.Sprintf(`livesec_cache_entries{level="plan"} %d`, int(plans)),
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}

	// Spans carry the ingress switch and flow identity.
	spans := fo.Spans(0, false)
	found := false
	for _, sp := range spans {
		if sp.Outcome.Completed() && sp.Switch != 0 && sp.Key.EthSrc != (netpkt.MAC{}) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no completed span with switch+flow identity among %d spans", len(spans))
	}
}

func TestObsBarrierStage(t *testing.T) {
	// A span parked on barriers closes when the last reply lands: at
	// least one control-channel round trip after the setup started.
	n := obsNet(t, Options{Config: core.Config{UseBarriers: true}})
	var sawBarrier bool
	for _, sp := range n.Controller.Obs().Spans(0, false) {
		if sp.Outcome.Completed() && sp.Total() >= 2*defaultCtrlLatency {
			sawBarrier = true
		}
	}
	if !sawBarrier {
		t.Fatal("no completed span covered a barrier round trip under UseBarriers")
	}
}

func TestObsQueueWaitStage(t *testing.T) {
	// With a modeled packet-in cost every dispatch waits at least that
	// long behind the serialized controller.
	cost := 200 * time.Microsecond
	n := obsNet(t, Options{Config: core.Config{PacketInCost: cost}})
	var sawWait bool
	for _, sp := range n.Controller.Obs().Spans(0, false) {
		if sp.Outcome.Completed() && sp.Total() >= cost {
			sawWait = true
		}
	}
	if !sawWait {
		t.Fatal("no completed span waited the modeled packet-in cost")
	}
}
