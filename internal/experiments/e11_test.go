package experiments

import "testing"

// TestE11PolicyEngine pins the experiment's deterministic claims at CI
// scale. Wall-clock rows (install times, lookup percentiles) are only
// sanity-checked for presence and positivity — their values belong to
// the machine, not the test.
func TestE11PolicyEngine(t *testing.T) {
	res := E11PolicyEngine(ScaleCI)
	for _, note := range res.Notes {
		if note == "invalidation deployment failed to build" {
			t.Fatal(note)
		}
	}
	for _, name := range []string{
		"install 1000 rules",
		"compiled lookup p99 @1000",
		"compiled lookup p99 cold @1000",
		"intent single-edit p99",
	} {
		if v, ok := res.Find(name); !ok || v <= 0 {
			t.Fatalf("row %q missing or non-positive: %v ok=%v", name, v, ok)
		}
	}

	// Every warm flow's decision is cached, read from the cache itself.
	warm, _ := res.Find("warm decisions")
	if warm != e11Users*e11Flows {
		t.Fatalf("warm decisions = %v, want %d", warm, e11Users*e11Flows)
	}
	// Unrelated churn: no cone touches a cached flow, so nothing goes.
	if v, _ := res.Find("unrelated churn: evicted"); v != 0 {
		t.Fatalf("unrelated churn evicted %v decisions, want 0", v)
	}
	// Targeted edit: exactly the quarantined user's decisions go.
	if v, _ := res.Find("targeted edit: evicted"); v != e11Flows {
		t.Fatalf("targeted edit evicted %v, want %d", v, e11Flows)
	}
	if v, _ := res.Find("targeted edit: retained"); v != warm-e11Flows {
		t.Fatalf("targeted edit retained %v, want %v", v, warm-e11Flows)
	}
	if v, _ := res.Find("targeted edit: evicted fraction"); v >= 5 {
		t.Fatalf("evicted fraction %v%%, want < 5%%", v)
	}
}
