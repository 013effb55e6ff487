package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// TestE13AlertTimeline pins the experiment's acceptance criteria at CI
// scale: every injected fault is detected, the three rules that watch a
// counter fire inside one 10ms evaluation tick and the breaker (which
// needs consecutive bad load reports first) inside a second, every alert
// resolves, and a latency-affecting alert links an exemplar trace.
func TestE13AlertTimeline(t *testing.T) {
	res := E13AlertTimeline(ScaleCI)
	for _, note := range res.Notes {
		if note == "deployment failed to build" {
			t.Fatal(note)
		}
	}
	get := func(name string) float64 {
		t.Helper()
		v, ok := res.Find(name)
		if !ok {
			t.Fatalf("row %q missing", name)
		}
		return v
	}
	for _, row := range res.Rows {
		if strings.HasPrefix(row.Name, "MTTD ") && row.Value < 0 {
			t.Errorf("%s = %v: the fault was never detected", row.Name, row.Value)
		}
	}
	for _, rule := range []string{"packet_in_shed_rate", "seproto_sync_error", "fw_handoff_timeout"} {
		if v := get("MTTD " + rule); v > 10 {
			t.Errorf("MTTD %s = %vms, want within one 10ms tick", rule, v)
		}
	}
	if v := get("MTTD breaker_open"); v >= 1000 {
		t.Errorf("MTTD breaker_open = %vms, want under 1s", v)
	}
	transitions, resolved := get("alert transitions"), get("alerts resolved")
	if transitions != 8 || resolved != 4 {
		t.Errorf("transitions = %v, resolved = %v; want 8 and 4 (four faults, each fires and resolves)", transitions, resolved)
	}
	if v := get("firing edges with exemplar trace"); v < 1 {
		t.Errorf("firing edges with exemplar trace = %v, want >= 1", v)
	}
}

// TestE13Deterministic compares two executions whole: the alert timeline
// lives in Notes, and it must reproduce value for value.
func TestE13Deterministic(t *testing.T) {
	r1 := E13AlertTimeline(ScaleCI)
	r2 := E13AlertTimeline(ScaleCI)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("E13 differs across runs:\n%s\n%s", r1, r2)
	}
}
