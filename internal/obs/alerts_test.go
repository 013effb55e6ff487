package obs

import (
	"testing"
	"time"
)

// tickAll advances the engine through n ticks of its interval starting
// at base, returning the final tick time.
func tickAll(ae *AlertEngine, base time.Duration, n int) time.Duration {
	now := base
	for i := 0; i < n; i++ {
		now += ae.Interval()
		ae.Tick(now)
	}
	return now
}

func TestAlertThresholdFireResolve(t *testing.T) {
	fo := NewFlowObs(8)
	var errs float64
	ae := NewAlertEngine(fo, 10*time.Millisecond, []AlertRule{{
		Name: "errs", Severity: "warning",
		Window: 50 * time.Millisecond, Limit: 0,
		Sample: func() (float64, float64) { return errs, 0 },
	}})
	now := tickAll(ae, 0, 3)
	if ae.Firing() != 0 {
		t.Fatal("fired with no errors")
	}
	errs = 2
	now += ae.Interval()
	ae.Tick(now)
	if ae.Firing() != 1 {
		t.Fatal("threshold breach did not fire")
	}
	// The cumulative counter stays flat; once the window slides past the
	// burst the rule must resolve.
	tickAll(ae, now, 8)
	if ae.Firing() != 0 {
		t.Fatal("alert did not resolve after the window cleared")
	}
	tr := ae.Transitions()
	if len(tr) != 2 || tr[0].State != "firing" || tr[1].State != "resolved" {
		t.Fatalf("timeline = %+v", tr)
	}
	if tr[0].Seq != 1 || tr[1].Seq != 2 || tr[0].Rule != "errs" || tr[0].Value <= 0 {
		t.Fatalf("transition fields = %+v", tr)
	}
}

func TestAlertRatioRule(t *testing.T) {
	fo := NewFlowObs(8)
	var bad, total float64
	ae := NewAlertEngine(fo, 10*time.Millisecond, []AlertRule{{
		Name: "ratio", Ratio: true,
		Window: 100 * time.Millisecond, Limit: 0.1,
		Sample: func() (float64, float64) { return bad, total },
	}})
	total = 100
	now := tickAll(ae, 0, 3)
	// 5% bad: below the 10% limit.
	bad, total = 5, 200
	now += ae.Interval()
	ae.Tick(now)
	if ae.Firing() != 0 {
		t.Fatalf("fired at 5%% (value %v)", ae.Snapshot()[0].Value)
	}
	// 50 more bad out of 100 more total: window ratio crosses 10%.
	bad, total = 55, 300
	now += ae.Interval()
	ae.Tick(now)
	if ae.Firing() != 1 {
		t.Fatalf("did not fire at high ratio (value %v)", ae.Snapshot()[0].Value)
	}
}

func TestAlertBurnRateNeedsBothWindows(t *testing.T) {
	fo := NewFlowObs(8)
	var bad, total float64
	ae := NewAlertEngine(fo, 10*time.Millisecond, []AlertRule{{
		Name: "burn", Ratio: true,
		Window: 200 * time.Millisecond, ShortWindow: 20 * time.Millisecond,
		Limit:  0.1,
		Sample: func() (float64, float64) { return bad, total },
	}})
	// A burst violates both windows.
	bad, total = 0, 100
	now := tickAll(ae, 0, 2)
	bad, total = 50, 200
	now += ae.Interval()
	ae.Tick(now)
	if ae.Firing() != 1 {
		t.Fatal("fresh violation did not fire")
	}
	// Traffic goes clean: the long window still remembers the burst, but
	// the short window clears, so the alert must resolve quickly.
	for i := 0; i < 5; i++ {
		total += 100
		now += ae.Interval()
		ae.Tick(now)
	}
	if ae.Firing() != 0 {
		t.Fatal("short window clean but alert still firing")
	}
	if now > 200*time.Millisecond {
		t.Fatal("test outlived the long window; resolve not attributable to ShortWindow")
	}
}

func TestAlertCanonicalOrderAndMetrics(t *testing.T) {
	fo := NewFlowObs(8)
	var v float64
	mk := func(name string) AlertRule {
		return AlertRule{Name: name, Severity: "critical", Window: 10 * time.Millisecond, Limit: 0,
			Sample: func() (float64, float64) { return v, 0 }}
	}
	// Both rules cross in the same tick: transitions must appear in rule
	// pack order, not map order.
	ae := NewAlertEngine(fo, 10*time.Millisecond, []AlertRule{mk("zz_first"), mk("aa_second")})
	ae.Tick(0) // baseline sample
	v = 1
	ae.Tick(10 * time.Millisecond)
	tr := ae.Transitions()
	if len(tr) != 2 || tr[0].Rule != "zz_first" || tr[1].Rule != "aa_second" {
		t.Fatalf("order = %+v", tr)
	}
	if got, _ := fo.Registry.Value("livesec_alerts_firing"); got != 2 {
		t.Fatalf("livesec_alerts_firing = %v", got)
	}
	if got, _ := fo.Registry.Value("livesec_alert_transitions_total", L("state", "firing")); got != 2 {
		t.Fatalf("firing transitions counter = %v", got)
	}
	if sev := ae.FiringBySeverity(); sev["critical"] != 2 {
		t.Fatalf("severity rollup = %v", sev)
	}
	ae.Tick(20 * time.Millisecond) // no new error within the window
	if got, _ := fo.Registry.Value("livesec_alert_transitions_total", L("state", "resolved")); got != 2 {
		t.Fatalf("resolved transitions counter = %v", got)
	}
	if err := LintText(fo.Registry.Text()); err != nil {
		t.Fatalf("alert metrics fail lint: %v", err)
	}
}

func TestAlertExemplarIsSlowestSetupInWindow(t *testing.T) {
	fo := NewFlowObs(8)
	// Two setups inside the window; ID 2 is slower and must be the
	// exemplar. An old slow setup outside the window must not win.
	finishOne(fo, 0, 50*time.Millisecond, OutcomeRouted)                   // ID 1, old
	finishOne(fo, 190*time.Millisecond, 2*time.Millisecond, OutcomeRouted) // ID 2
	finishOne(fo, 195*time.Millisecond, time.Millisecond, OutcomeRouted)   // ID 3
	var errs float64
	ae := NewAlertEngine(fo, 10*time.Millisecond, []AlertRule{{
		Name: "errs", Window: 100 * time.Millisecond, Limit: 0,
		Sample: func() (float64, float64) { return errs, 0 },
	}})
	ae.Tick(190 * time.Millisecond)
	errs = 1
	ae.Tick(200 * time.Millisecond)
	tr := ae.Transitions()
	if len(tr) != 1 || tr[0].State != "firing" {
		t.Fatalf("timeline = %+v", tr)
	}
	if tr[0].ExemplarSpanID != 2 {
		t.Fatalf("exemplar = %d, want span 2 (slowest in window)", tr[0].ExemplarSpanID)
	}
	if ae.Snapshot()[0].ExemplarSpanID != 2 {
		t.Fatalf("snapshot exemplar = %+v", ae.Snapshot()[0])
	}
}

func TestDefaultRulesPack(t *testing.T) {
	fo := NewFlowObs(8)
	rules := DefaultRules(fo)
	want := []string{"flow_setup_latency_slo", "packet_in_shed_rate",
		"breaker_open", "fw_handoff_timeout", "seproto_sync_error"}
	if len(rules) != len(want) {
		t.Fatalf("pack has %d rules, want %d", len(rules), len(want))
	}
	for i, name := range want {
		if rules[i].Name != name {
			t.Fatalf("rules[%d] = %s, want %s", i, rules[i].Name, name)
		}
		// Every rule must sample cleanly even though none of the optional
		// metrics (firewall migration, seproto) are registered.
		if bad, _ := rules[i].Sample(); bad != 0 {
			t.Fatalf("rule %s sampled %v from an empty registry", name, bad)
		}
	}
	// The latency SLO rule must see a slow setup as bad.
	finishOne(fo, 0, 50*time.Millisecond, OutcomeRouted) // 50ms > 25ms bound
	finishOne(fo, 0, time.Millisecond, OutcomeRouted)
	bad, total := rules[0].Sample()
	if bad != 1 || total != 2 {
		t.Fatalf("latency rule sampled bad=%v total=%v, want 1/2", bad, total)
	}
}
