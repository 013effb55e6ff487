package obs

import (
	"slices"
	"sort"
	"time"

	"livesec/internal/flow"
)

// Flow-setup tracing: every packet-in that reaches the routing path
// opens a Span; the controller stamps structural facts (cache hits,
// breaker exclusions, picked elements) as the setup progresses, and
// FinishSpan folds the span's duration into the setup-latency histogram
// and a bounded ring of recent spans. Spans are pooled and the ring
// stores them by value, so the record path is allocation-free.
//
// A span is one duration, from ingress-pipeline acceptance to packet
// release. Under the sim clock the controller's CPU work is
// instantaneous, so the duration is the simulated delay the setup sat
// through: the pipeline backlog (Config.PacketInCost), a controller
// outage's parked time and, under Config.UseBarriers, the barrier round
// trip. Under livesecd it is currently always zero: the event loop
// advances virtual time once, before a message is handled, and a
// packet-in is stamped on acceptance at that same instant. The
// structural facts still carry the signal — hit/miss flags and
// exclusion counts are the shape Azzouni-style timing fingerprints are
// made of.

// Outcome classifies how a span ended.
type Outcome uint8

// Span outcomes.
const (
	// OutcomeRouted is a completed direct (uninspected-allow) setup.
	OutcomeRouted Outcome = iota
	// OutcomeChained is a completed setup steered through elements.
	OutcomeChained
	// OutcomeFailOpen is a completed setup routed around an unsatisfiable
	// chain (policy fail-open window).
	OutcomeFailOpen
	// OutcomeDenied is a policy (or fail-closed) drop install.
	OutcomeDenied
	// OutcomeShed is a packet-in rejected by admission control.
	OutcomeShed
	// OutcomeIncomplete is a setup abandoned mid-install (destination
	// unknown, switch unusable on the path).
	OutcomeIncomplete
	// OutcomeBlocked is a packet from an already-blocked user.
	OutcomeBlocked

	numOutcomes = int(OutcomeBlocked) + 1
)

var outcomeNames = [numOutcomes]string{
	"routed", "chained", "fail_open", "denied", "shed", "incomplete", "blocked",
}

// String returns the outcome's snake_case label value.
func (o Outcome) String() string {
	if int(o) < numOutcomes {
		return outcomeNames[o]
	}
	return "unknown"
}

// Completed reports whether the setup delivered its packet: the flow was
// installed and released (directly, chained, or fail-open).
func (o Outcome) Completed() bool {
	return o == OutcomeRouted || o == OutcomeChained || o == OutcomeFailOpen
}

// MaxSpanElements bounds the service elements recorded per span (chains
// longer than this are truncated in the trace, not in the network).
const MaxSpanElements = 4

// Span is one flow setup's trace. All fields are plain values so the
// span ring can store spans by copy.
type Span struct {
	// ID is the span's sequence number (1-based, per FlowObs).
	ID uint64
	// Switch is the ingress switch's datapath ID.
	Switch uint64
	// Key identifies the flow (zero except EthSrc for shed spans, which
	// are recorded before packet decode).
	Key flow.Key
	// Start is when the packet-in entered the ingress pipeline; End is
	// when the setup finished (packet released, or the failure point).
	Start, End time.Duration
	// Outcome classifies the result.
	Outcome Outcome
	// PlanHit records whether the install replayed a cached plan.
	PlanHit bool
	// BreakerSkips counts elements excluded by open circuit breakers
	// during SE pick.
	BreakerSkips uint32
	// Elements holds the first NumElements picked service-element IDs.
	Elements    [MaxSpanElements]uint64
	NumElements uint8
}

// SetOutcome records the span's outcome.
func (sp *Span) SetOutcome(o Outcome) { sp.Outcome = o }

// MarkPlan records the plan-cache result.
func (sp *Span) MarkPlan(hit bool) { sp.PlanHit = hit }

// AddElement appends a picked service element (truncating at
// MaxSpanElements).
func (sp *Span) AddElement(id uint64) {
	if int(sp.NumElements) < MaxSpanElements {
		sp.Elements[sp.NumElements] = id
		sp.NumElements++
	}
}

// AddBreakerSkips accumulates breaker exclusions.
func (sp *Span) AddBreakerSkips(n uint32) { sp.BreakerSkips += n }

// Total returns the span's end-to-end duration.
func (sp *Span) Total() time.Duration { return sp.End - sp.Start }

// DefaultRingCap is the span-ring capacity when NewFlowObs gets 0.
const DefaultRingCap = 4096

// FlowObs is the flow-setup observability facade every controller owns:
// a registry plus the span machinery.
type FlowObs struct {
	// Registry holds all metric families, including the span-derived
	// ones below; components share it to register their own.
	Registry *Registry

	ring Ring[Span]
	free []*Span

	nextID uint64

	totalHist *Histogram
	outcomes  [numOutcomes]*Counter

	// PolicyCompile observes intent recompile latency (one sample per
	// intent Upsert/Delete). Wall-clock, not virtual: recompilation is
	// real controller CPU work even under the sim clock.
	PolicyCompile *Histogram
	// Intents tracks the number of installed intents.
	Intents *Gauge
}

// CompileLatencyBuckets is the bucket layout for policy-compile times:
// 10µs to 1s, finer at the low end — single-intent incremental edits
// land in the microsecond buckets while bulk installs reach into the
// milliseconds; the ≤10ms interactive-edit budget sits mid-scale.
var CompileLatencyBuckets = []float64{
	0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001,
	0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1,
}

// NewFlowObs creates the facade with a bounded span ring (0 = 4096
// spans) and registers the flow-setup metric families.
func NewFlowObs(ringCap int) *FlowObs {
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	fo := &FlowObs{
		Registry: NewRegistry(),
		ring:     NewRing[Span](ringCap),
		free:     make([]*Span, 0, 8),
	}
	fo.totalHist = fo.Registry.Histogram(
		"livesec_flow_setup_seconds",
		"End-to-end flow-setup latency, pipeline acceptance to packet release.",
		DefaultLatencyBuckets)
	for o := 0; o < numOutcomes; o++ {
		fo.outcomes[o] = fo.Registry.Counter(
			"livesec_flow_setup_spans_total",
			"Flow-setup trace spans recorded, by outcome.",
			L("outcome", Outcome(o).String()))
	}
	fo.PolicyCompile = fo.Registry.Histogram(
		"livesec_policy_compile_seconds",
		"Intent-to-rule recompile latency per intent edit (wall clock).",
		CompileLatencyBuckets)
	fo.Intents = fo.Registry.Gauge(
		"livesec_intents",
		"Installed security intents.")
	return fo
}

// StartSpan opens a span starting at the given virtual time, reusing a
// pooled span when available.
func (fo *FlowObs) StartSpan(start time.Duration) *Span {
	var sp *Span
	if n := len(fo.free); n > 0 {
		sp = fo.free[n-1]
		fo.free = fo.free[:n-1]
		*sp = Span{}
	} else {
		sp = new(Span)
	}
	fo.nextID++
	sp.ID = fo.nextID
	sp.Start = start
	return sp
}

// FinishSpan closes a span at virtual time now: a completed setup feeds
// the setup-latency histogram, every outcome counts, and the span is
// copied into the ring and returned to the pool.
func (fo *FlowObs) FinishSpan(sp *Span, now time.Duration) {
	sp.End = now
	if sp.Outcome.Completed() {
		fo.totalHist.ObserveDuration(sp.Total())
	}
	fo.outcomes[sp.Outcome].Inc()
	fo.ring.Push(*sp)
	fo.free = append(fo.free, sp)
}

// Recorded returns the number of spans ever finished.
func (fo *FlowObs) Recorded() uint64 { return fo.ring.Total() }

// CompletedSetups returns the number of setups that installed entries
// and released the first packet: the setup-latency histogram's count.
func (fo *FlowObs) CompletedSetups() uint64 { return fo.totalHist.Count() }

// Spans returns up to limit spans from the ring: newest first, or
// slowest first (by total duration, ties broken by ID) when slowest is
// set. limit <= 0 returns everything retained.
func (fo *FlowObs) Spans(limit int, slowest bool) []Span {
	out := fo.ring.Values()
	if slowest {
		sort.Slice(out, func(i, j int) bool {
			if d1, d2 := out[i].Total(), out[j].Total(); d1 != d2 {
				return d1 > d2
			}
			return out[i].ID < out[j].ID
		})
	} else {
		slices.Reverse(out)
	}
	if limit > 0 && limit < len(out) {
		out = out[:limit]
	}
	return out
}

// Span returns the retained span with the given ID, if the ring still
// holds it.
func (fo *FlowObs) Span(id uint64) (Span, bool) {
	for q := fo.ring.Oldest(); q < fo.ring.Total(); q++ {
		if sp := fo.ring.At(q); sp.ID == id { // never 0
			return *sp, true
		}
	}
	return Span{}, false
}

// SlowestSpanSince returns the ID of the slowest retained span that
// finished at or after since (ties broken toward the lower ID; 0 when
// none). The alert engine uses it to attach an exemplar span to each
// firing alert.
func (fo *FlowObs) SlowestSpanSince(since time.Duration) uint64 {
	var (
		best    uint64
		bestDur time.Duration = -1
	)
	for q := fo.ring.Oldest(); q < fo.ring.Total(); q++ {
		sp := fo.ring.At(q)
		if sp.End < since {
			continue
		}
		if d := sp.Total(); d > bestDur || (d == bestDur && sp.ID < best) {
			best, bestDur = sp.ID, d
		}
	}
	return best
}

// SpanView is the JSON shape of one span for the /traces endpoint.
type SpanView struct {
	ID                uint64   `json:"id"`
	Switch            uint64   `json:"switch"`
	Flow              string   `json:"flow"`
	Outcome           string   `json:"outcome"`
	StartMS           float64  `json:"start_ms"`
	TotalMS           float64  `json:"total_ms"`
	PlanCacheHit      bool     `json:"plan_cache_hit"`
	BreakerExclusions uint32   `json:"breaker_exclusions,omitempty"`
	Elements          []uint64 `json:"service_elements,omitempty"`
}

// View renders the span for JSON export.
func (sp *Span) View() SpanView {
	v := SpanView{
		ID:                sp.ID,
		Switch:            sp.Switch,
		Flow:              sp.Key.String(),
		Outcome:           sp.Outcome.String(),
		StartMS:           durMS(sp.Start),
		TotalMS:           durMS(sp.Total()),
		PlanCacheHit:      sp.PlanHit,
		BreakerExclusions: sp.BreakerSkips,
	}
	for i := uint8(0); i < sp.NumElements; i++ {
		v.Elements = append(v.Elements, sp.Elements[i])
	}
	return v
}

func durMS(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
