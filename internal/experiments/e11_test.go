package experiments

import "testing"

// TestE11PolicyEngine runs the experiment at CI scale. Every row is
// wall-clock (install times, lookup percentiles, edit latency), so rows
// are only sanity-checked for presence and positivity — their values
// belong to the machine, not the test.
func TestE11PolicyEngine(t *testing.T) {
	res := E11PolicyEngine(ScaleCI)
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
}
