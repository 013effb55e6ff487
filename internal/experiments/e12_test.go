package experiments

import (
	"reflect"
	"testing"
)

// TestE12StatefulFirewall pins the experiment's acceptance criteria at
// CI scale: the stateless arm passes attacks, the strict no-migration
// arm drops every re-steered established session, and the migration arm
// does neither — with every handoff acked at the default timeout and
// every handoff written off at a sub-RTT one.
func TestE12StatefulFirewall(t *testing.T) {
	res := E12StatefulFirewall(ScaleCI)
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

	// Stateless inspection is blind to out-of-state packets.
	if v := get("stateless: attacks passed"); v < 1 {
		t.Fatalf("stateless arm passed %v attacks, want >= 1", v)
	}
	// Strict conntrack without migration drops every re-steered session.
	const sessions = 3 // e12Params at ScaleCI
	if v := get("strict no-migration: sessions lost @crash"); v != sessions {
		t.Fatalf("no-migration lost %v sessions at crash, want %d", v, sessions)
	}
	if v := get("strict no-migration: attacks passed"); v != 0 {
		t.Fatalf("strict arm passed %v attacks", v)
	}
	// Migration keeps both properties.
	for _, name := range []string{
		"stateful migration: attacks passed",
		"stateful migration: sessions lost @crash",
		"stateful migration: sessions lost @breaker",
		"stateful migration: sessions lost @takeover",
		"stateful migration: handoff timeouts",
	} {
		if v := get(name); v != 0 {
			t.Fatalf("%s = %v, want 0", name, v)
		}
	}
	if v := get("stateful migration: handoffs ok"); v < 1 {
		t.Fatalf("migration arm completed %v handoffs, want >= 1", v)
	}
	// Sub-RTT timeout: every handoff deterministically written off,
	// session continuity preserved by the already-sent install.
	if v := get("stateful sub-RTT timeout: handoff timeouts"); v < 1 {
		t.Fatalf("timeout arm recorded %v timeouts, want >= 1", v)
	}
	if v := get("stateful sub-RTT timeout: handoffs ok"); v != 0 {
		t.Fatalf("timeout arm acked %v handoffs, want 0", v)
	}
}

// TestE12Deterministic backs the -json/-stable wiring: two executions
// produce identical results, notes included.
func TestE12Deterministic(t *testing.T) {
	r1 := E12StatefulFirewall(ScaleCI)
	r2 := E12StatefulFirewall(ScaleCI)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("E12 differs across runs:\n%s\n%s", r1, r2)
	}
}
