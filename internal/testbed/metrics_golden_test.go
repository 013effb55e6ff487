package testbed

import (
	"sort"
	"strings"
	"testing"
	"time"

	"livesec/internal/core"
	"livesec/internal/obs"
)

// typeLines extracts the sorted "# TYPE name kind" inventory from a
// text exposition — the family catalogue, independent of sample values.
func typeLines(text string) []string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			out = append(out, line)
		}
	}
	sort.Strings(out)
	return out
}

// The full metrics inventory with every knob enabled: stateful
// firewall migration and SLO alerts, on one deployment. The golden list is the contract DESIGN.md § Observability
// points to — adding a family without updating it is a breaking
// observability change. The exposition must also pass the
// strict lint (counter _total suffixes, non-empty HELP).
func TestMetricsInventoryAllKnobs(t *testing.T) {
	fo := obs.NewFlowObs(0)
	n := obsNet(t, Options{
		Monitor:     true,
		SLO:         true,
		SLOInterval: 10 * time.Millisecond,
		Config:      core.Config{Obs: fo, StatefulFW: true},
	})
	if n.Alerts == nil {
		t.Fatal("SLO option did not build an alert engine")
	}
	text := fo.Registry.Text()
	if err := obs.LintText(text); err != nil {
		t.Fatalf("all-knobs exposition fails lint: %v\n%s", err, text)
	}
	want := []string{
		"# TYPE livesec_alert_transitions_total counter",
		"# TYPE livesec_alerts_firing gauge",
		"# TYPE livesec_arp_proxied_total counter",
		"# TYPE livesec_breaker_total counter",
		"# TYPE livesec_controller_parked_msgs gauge",
		"# TYPE livesec_decision_cache_total counter",
		"# TYPE livesec_drop_rules_total counter",
		"# TYPE livesec_flow_mods_total counter",
		"# TYPE livesec_flow_setup_seconds histogram",
		"# TYPE livesec_flow_setup_spans_total counter",
		"# TYPE livesec_flow_setup_stage_seconds histogram",
		"# TYPE livesec_flow_setups_completed_total counter",
		"# TYPE livesec_flows_total counter",
		"# TYPE livesec_fw_pending_handoffs gauge",
		"# TYPE livesec_fw_sessions gauge",
		"# TYPE livesec_fw_state_migrations_total counter",
		"# TYPE livesec_fw_state_syncs_total counter",
		"# TYPE livesec_ingress_depth gauge",
		"# TYPE livesec_intents gauge",
		"# TYPE livesec_packet_ins_shed_total counter",
		"# TYPE livesec_packet_ins_total counter",
		"# TYPE livesec_packet_outs_total counter",
		"# TYPE livesec_plan_cache_total counter",
		"# TYPE livesec_policy_cache_invalidation_total counter",
		"# TYPE livesec_policy_compile_seconds histogram",
		"# TYPE livesec_policy_rules gauge",
		"# TYPE livesec_seproto_errors_total counter",
		"# TYPE livesec_service_elements gauge",
		"# TYPE livesec_sessions gauge",
		"# TYPE livesec_sim_events_pending gauge",
		"# TYPE livesec_sim_events_processed_total counter",
		"# TYPE livesec_sim_heap_max_depth gauge",
		"# TYPE livesec_suppress_rules_total counter",
		"# TYPE livesec_switch_flow_entries gauge",
		"# TYPE livesec_switch_lookups_total counter",
		"# TYPE livesec_switch_microflow_invalidations_total counter",
		"# TYPE livesec_switch_microflow_total counter",
		"# TYPE livesec_switch_packet_ins_total counter",
		"# TYPE livesec_switch_table_full_rejects_total counter",
		"# TYPE livesec_switch_table_misses_total counter",
		"# TYPE livesec_switches gauge",
		"# TYPE livesec_trace_child_spans_total counter",
	}
	got := typeLines(text)
	if len(got) != len(want) {
		t.Fatalf("metric inventory drifted: %d families, want %d\n--- got ---\n%s\n--- want ---\n%s",
			len(got), len(want), strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("inventory[%d] = %q, want %q\nfull:\n%s", i, got[i], want[i], strings.Join(got, "\n"))
		}
	}
}
