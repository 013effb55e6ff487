package experiments

import "testing"

// TestE10ControllerFailover pins the failover rows at both scales (full
// scale only outside -short): the outage parks messages, loses no flow,
// trips no keepalive, resyncs every client switch, and charges the
// outage — not more than 50 ms beyond it — to policy-violation time.
func TestE10ControllerFailover(t *testing.T) {
	for _, scale := range []Scale{ScaleCI, ScaleFull} {
		if scale == ScaleFull && testing.Short() {
			continue
		}
		p := e10ParamsFor(scale)
		res := E10ControllerFailover(scale)
		for _, note := range res.Notes {
			if note == "deployment failed to build" {
				t.Fatal(note)
			}
		}
		row := func(name string) float64 {
			t.Helper()
			v, ok := res.Find(name)
			if !ok {
				t.Fatalf("scale %v: no row %q", scale, name)
			}
			return v
		}
		if v := row("failover: flows lost"); v != 0 {
			t.Errorf("scale %v: flows lost=%v, want 0", scale, v)
		}
		if v := row("failover: false switch-down"); v != 0 {
			t.Errorf("scale %v: false switch-downs=%v, want 0", scale, v)
		}
		if v := row("failover: messages parked"); v <= 0 {
			t.Errorf("scale %v: nothing parked during the outage", scale)
		}
		if v := row("failover: switches resynced"); v < float64(p.nSwitches) {
			t.Errorf("scale %v: %v switches resynced, want every one of %d client switches", scale, v, p.nSwitches)
		}
		outage := p.outage.Seconds()
		if v := row("failover: policy-violation time"); v < outage || v > outage+0.05 {
			t.Errorf("scale %v: policy-violation time %vs, want within [%v, %v]", scale, v, outage, outage+0.05)
		}
	}
}
