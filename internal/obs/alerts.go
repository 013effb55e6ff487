package obs

import (
	"time"
)

// Deterministic SLO/alert engine. Rules are declarative windowed
// conditions over the registry — rate thresholds over a single window,
// multi-window burn-rate rules over an error ratio — evaluated on
// sim-time ticks, so two identical runs produce an identical alert
// timeline. Everything derives from cumulative counters sampled at tick
// boundaries: no wall clock, no goroutines, no randomness. Every
// core.Controller builds one over its own registry with DefaultRules and
// ticks it on its engine until Shutdown.
//
// The engine shares the obs design constraints: evaluation touches only
// the preallocated per-rule sample rings, and firing/resolving emits
// transitions in canonical rule order within a tick. Each firing alert
// carries the ID of the slowest setup span in its violating window as an
// exemplar, linking the alert back to a concrete setup.

// DefaultAlertInterval is the evaluation cadence when NewAlertEngine is
// given 0: fine enough to bound detection latency at tens of
// milliseconds, coarse enough to stay invisible next to per-packet
// event costs.
const DefaultAlertInterval = 10 * time.Millisecond

// AlertState is a rule's position in the firing lifecycle.
type AlertState uint8

// Alert states.
const (
	// AlertInactive: the condition does not hold.
	AlertInactive AlertState = iota
	// AlertFiring: the alert is active.
	AlertFiring
)

var alertStateNames = [...]string{"inactive", "firing"}

// String returns the state's snake_case label value.
func (s AlertState) String() string {
	if int(s) < len(alertStateNames) {
		return alertStateNames[s]
	}
	return "unknown"
}

// AlertRule is one declarative alert condition. Rules sample cumulative
// inputs at every tick and evaluate a windowed value against Limit.
type AlertRule struct {
	// Name identifies the rule; rules evaluate (and emit transitions)
	// in slice order, so the pack's order is the canonical order.
	Name string
	// Severity is a free-form label ("warning", "critical") carried on
	// transitions and monitor events.
	Severity string
	// Summary is a one-line human description.
	Summary string

	// Sample returns the rule's inputs at the current tick: bad is the
	// cumulative count of bad events, total the cumulative denominator
	// for Ratio rules (ignored otherwise).
	Sample func() (bad, total float64)

	// Ratio evaluates delta(bad)/delta(total) over the window instead
	// of a per-second rate of bad.
	Ratio bool

	// Window is the (long) evaluation window.
	Window time.Duration
	// ShortWindow, when set, makes this a multi-window burn-rate rule:
	// the condition must hold over both Window and ShortWindow, so
	// alerts fire fast on fresh violations yet resolve quickly once the
	// short window clears.
	ShortWindow time.Duration

	// Limit is the threshold; the condition is value > Limit.
	Limit float64
}

// AlertTransition is one firing or resolving edge in the timeline.
type AlertTransition struct {
	// Seq is the transition's 1-based sequence number.
	Seq uint64 `json:"seq"`
	// At is the sim time of the evaluating tick (exported as at_ms).
	At   time.Duration `json:"-"`
	AtMS float64       `json:"at_ms"`
	Rule string        `json:"rule"`
	// Severity mirrors the rule's severity.
	Severity string `json:"severity"`
	// State is "firing" or "resolved".
	State string `json:"state"`
	// Value is the windowed value that crossed (or cleared) the limit.
	Value float64 `json:"value"`
	Limit float64 `json:"limit"`
	// ExemplarSpanID is the slowest setup span finishing inside the
	// violating window (firing transitions only; 0 when no setup span
	// is retained for the window).
	ExemplarSpanID uint64 `json:"exemplar_span_id,omitempty"`
}

// AlertView is the JSON shape of one rule's current state for /alerts
// and /health.
type AlertView struct {
	Rule           string  `json:"rule"`
	Severity       string  `json:"severity"`
	State          string  `json:"state"`
	Value          float64 `json:"value"`
	Limit          float64 `json:"limit"`
	FiringSinceMS  float64 `json:"firing_since_ms,omitempty"`
	ExemplarSpanID uint64  `json:"exemplar_span_id,omitempty"`
	Summary        string  `json:"summary,omitempty"`
}

// alertSample is one tick's cumulative inputs.
type alertSample struct {
	at         time.Duration
	bad, total float64
}

// alertRuleState is a rule's runtime state: the lifecycle position plus
// a bounded ring of cumulative samples covering the longest window.
type alertRuleState struct {
	state    AlertState
	firedAt  time.Duration
	value    float64
	exemplar uint64
	ring     []alertSample
	head, n  int
}

// maxTransitions bounds the retained timeline; runs long enough to
// overflow it keep the latest entries, as a long-running daemon's
// operator needs the firings of now, not of its first hour.
const maxTransitions = 4096

// AlertEngine evaluates a rule pack on sim-time ticks. Create with
// NewAlertEngine.
type AlertEngine struct {
	fo       *FlowObs
	rules    []AlertRule
	states   []alertRuleState
	interval time.Duration

	transitions Ring[AlertTransition]
	seq         uint64

	// OnTransition, when set, observes every firing/resolving edge as
	// it is appended (the controller records it as a monitor event).
	OnTransition func(AlertTransition)

	transFiring   *Counter
	transResolved *Counter
}

// NewAlertEngine builds an engine over the FlowObs registry with the
// given evaluation interval (0 = DefaultAlertInterval) and rule pack.
func NewAlertEngine(fo *FlowObs, interval time.Duration, rules []AlertRule) *AlertEngine {
	if interval <= 0 {
		interval = DefaultAlertInterval
	}
	ae := &AlertEngine{
		fo:          fo,
		rules:       rules,
		states:      make([]alertRuleState, len(rules)),
		interval:    interval,
		transitions: NewRing[AlertTransition](maxTransitions),
	}
	for i, r := range rules {
		w := r.Window
		if r.ShortWindow > w {
			w = r.ShortWindow
		}
		ae.states[i].ring = make([]alertSample, int(w/interval)+2)
	}
	ae.fo.Registry.GaugeFunc("livesec_alerts_firing",
		"Alert rules currently firing.",
		func() float64 { return float64(ae.Firing()) })
	ae.transFiring = ae.fo.Registry.Counter(
		"livesec_alert_transitions_total",
		"Alert timeline edges by direction.", L("state", "firing"))
	ae.transResolved = ae.fo.Registry.Counter(
		"livesec_alert_transitions_total",
		"Alert timeline edges by direction.", L("state", "resolved"))
	return ae
}

// Interval returns the evaluation cadence.
func (ae *AlertEngine) Interval() time.Duration { return ae.interval }

// Tick evaluates every rule at sim time now, in canonical order.
func (ae *AlertEngine) Tick(now time.Duration) {
	for i := range ae.rules {
		ae.evalRule(i, now)
	}
}

// push appends a cumulative sample, evicting the oldest when full.
func (st *alertRuleState) push(s alertSample) {
	if st.n < len(st.ring) {
		st.ring[(st.head+st.n)%len(st.ring)] = s
		st.n++
		return
	}
	st.ring[st.head] = s
	st.head = (st.head + 1) % len(st.ring)
}

// at returns the newest sample no newer than cutoff, falling back to
// the oldest retained sample while the engine is younger than the
// window.
func (st *alertRuleState) at(cutoff time.Duration) alertSample {
	ref := st.ring[st.head]
	for i := 0; i < st.n; i++ {
		s := st.ring[(st.head+i)%len(st.ring)]
		if s.at > cutoff {
			break
		}
		ref = s
	}
	return ref
}

// windowed computes the rule's value over the window ending at now:
// delta ratio for Ratio rules, per-second rate otherwise. The effective
// window is now-ref.at, so fresh engines detect bursts without waiting
// a full window.
func (ae *AlertEngine) windowed(r *AlertRule, st *alertRuleState, now, window time.Duration, cur alertSample) float64 {
	ref := st.at(now - window)
	elapsed := now - ref.at
	if elapsed <= 0 {
		return 0
	}
	if r.Ratio {
		dTotal := cur.total - ref.total
		if dTotal <= 0 {
			return 0
		}
		return (cur.bad - ref.bad) / dTotal
	}
	return (cur.bad - ref.bad) / elapsed.Seconds()
}

func (ae *AlertEngine) evalRule(i int, now time.Duration) {
	r := &ae.rules[i]
	st := &ae.states[i]
	bad, total := r.Sample()
	cur := alertSample{at: now, bad: bad, total: total}

	st.push(cur)
	value := ae.windowed(r, st, now, r.Window, cur)
	cond := value > r.Limit
	if cond && r.ShortWindow > 0 {
		cond = ae.windowed(r, st, now, r.ShortWindow, cur) > r.Limit
	}
	st.value = value

	switch {
	case cond && st.state == AlertInactive:
		ae.fire(r, st, now, value)
	case !cond && st.state == AlertFiring:
		st.state = AlertInactive
		st.exemplar = 0
		ae.emit(r, now, "resolved", value, 0)
	}
}

func (ae *AlertEngine) fire(r *AlertRule, st *alertRuleState, now time.Duration, value float64) {
	st.state = AlertFiring
	st.firedAt = now
	st.exemplar = ae.fo.SlowestSpanSince(now - r.Window)
	ae.emit(r, now, "firing", value, st.exemplar)
}

func (ae *AlertEngine) emit(r *AlertRule, now time.Duration, state string, value float64, exemplar uint64) {
	ae.seq++
	t := AlertTransition{
		Seq:            ae.seq,
		At:             now,
		AtMS:           durMS(now),
		Rule:           r.Name,
		Severity:       r.Severity,
		State:          state,
		Value:          value,
		Limit:          r.Limit,
		ExemplarSpanID: exemplar,
	}
	if state == "firing" {
		ae.transFiring.Inc()
	} else {
		ae.transResolved.Inc()
	}
	ae.transitions.Push(t)
	if ae.OnTransition != nil {
		ae.OnTransition(t)
	}
}

// Firing returns the number of rules currently firing.
func (ae *AlertEngine) Firing() int {
	n := 0
	for i := range ae.states {
		if ae.states[i].state == AlertFiring {
			n++
		}
	}
	return n
}

// FiringBySeverity returns the number of firing rules per severity
// label.
func (ae *AlertEngine) FiringBySeverity() map[string]int {
	out := make(map[string]int)
	for i := range ae.states {
		if ae.states[i].state == AlertFiring {
			out[ae.rules[i].Severity]++
		}
	}
	return out
}

// Snapshot returns every rule's current state in canonical order.
func (ae *AlertEngine) Snapshot() []AlertView {
	out := make([]AlertView, len(ae.rules))
	for i := range ae.rules {
		r, st := &ae.rules[i], &ae.states[i]
		v := AlertView{
			Rule:     r.Name,
			Severity: r.Severity,
			State:    st.state.String(),
			Value:    st.value,
			Limit:    r.Limit,
			Summary:  r.Summary,
		}
		if st.state == AlertFiring {
			v.FiringSinceMS = durMS(st.firedAt)
			v.ExemplarSpanID = st.exemplar
		}
		out[i] = v
	}
	return out
}

// Transitions returns a copy of the retained alert timeline, the latest
// maxTransitions edges, oldest first.
func (ae *AlertEngine) Transitions() []AlertTransition { return ae.transitions.Values() }

// FlowSetupSLOBound is the default flow-setup latency SLO bound used by
// the rule pack: setups should complete within 25ms (a
// DefaultLatencyBuckets bound, so the error ratio is exact).
const FlowSetupSLOBound = 0.025

// DefaultRules is the standard rule pack over a FlowObs registry. The
// slice order is the canonical evaluation order. Rules referencing
// conditionally-registered metrics (firewall migration, seproto errors)
// sample 0 until the owning component registers them, so the pack works
// against any controller configuration.
func DefaultRules(fo *FlowObs) []AlertRule {
	reg := fo.Registry
	val := func(name string, labels ...Label) func() (float64, float64) {
		return func() (float64, float64) {
			v, _ := reg.Value(name, labels...)
			return v, 0
		}
	}
	return []AlertRule{
		{
			Name:        "flow_setup_latency_slo",
			Severity:    "critical",
			Summary:     "Flow-setup latency burn: >5% of setups slower than the 25ms SLO bound over both burn windows.",
			Ratio:       true,
			Window:      500 * time.Millisecond,
			ShortWindow: 100 * time.Millisecond,
			Limit:       0.05,
			Sample: func() (float64, float64) {
				n := float64(fo.totalHist.Count())
				good := float64(fo.totalHist.CountAtOrBelow(FlowSetupSLOBound))
				return n - good, n
			},
		},
		{
			Name:     "packet_in_shed_rate",
			Severity: "warning",
			Summary:  "Admission control shedding >1% of packet-ins.",
			Ratio:    true,
			Window:   250 * time.Millisecond,
			Limit:    0.01,
			Sample: func() (float64, float64) {
				shed, _ := reg.Value("livesec_packet_ins_shed_total")
				dispatched, _ := reg.Value("livesec_packet_ins_total")
				return shed, shed + dispatched
			},
		},
		{
			Name:     "breaker_open",
			Severity: "warning",
			Summary:  "Service-element circuit breaker tripped within the window.",
			Window:   250 * time.Millisecond,
			Limit:    0,
			Sample:   val("livesec_breaker_total", L("event", "trip")),
		},
		{
			Name:     "fw_handoff_timeout",
			Severity: "critical",
			Summary:  "Firewall state migration timed out within the window (drop-and-relearn fallback taken).",
			Window:   250 * time.Millisecond,
			Limit:    0,
			Sample:   val("livesec_fw_state_migrations_total", L("outcome", "handoff_timeout")),
		},
		{
			Name:     "seproto_sync_error",
			Severity: "warning",
			Summary:  "seproto state-sync errors (bad cert, version skew, malformed report) within the window.",
			Window:   250 * time.Millisecond,
			Limit:    0,
			Sample:   val("livesec_seproto_errors_total"),
		},
	}
}
