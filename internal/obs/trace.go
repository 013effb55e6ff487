package obs

import (
	"sort"
	"time"

	"livesec/internal/flow"
)

// Flow-setup tracing: every packet-in that reaches the routing path
// opens a Span; the controller stamps per-stage virtual durations and
// structural facts (cache hits, breaker exclusions, picked elements) as
// the setup progresses, and FinishSpan folds the result into the stage
// histograms and a bounded ring of recent spans. Spans are pooled and
// the ring stores them by value, so the record path is allocation-free.
//
// Stage semantics under the sim clock: CPU-bound stages (admission,
// decision, plan, SE pick, install) are instantaneous in virtual time —
// their histograms collapse to the first bucket — while queue wait
// (with Config.PacketInCost) and barrier confirm measure genuinely
// simulated delays. The structure still carries the signal: hit/miss
// flags and exclusion counts expose the shape Azzouni-style timing
// fingerprints are made of, and under livesecd virtual time tracks the
// wall clock, so the same stages report real latencies.

// Stage indexes one phase of a flow setup.
type Stage uint8

// Flow-setup stages, in pipeline order.
const (
	// StageQueueWait is the time from ingress-pipeline acceptance to
	// dispatch (overload.go priority lanes + PacketInCost backlog).
	StageQueueWait Stage = iota
	// StageAdmission is the token-bucket admission check.
	StageAdmission
	// StageDecision is the policy decision (cache hit or table lookup).
	StageDecision
	// StagePlan is install-plan compute (cache hit or path build).
	StagePlan
	// StageSEPick is service-element selection, including breaker
	// exclusion scans.
	StageSEPick
	// StageInstall is flow-mod marshal + batched install emission.
	StageInstall
	// StageBarrier is the barrier-confirm round trip (UseBarriers).
	StageBarrier

	// NumStages is the number of stages.
	NumStages = int(StageBarrier) + 1
)

var stageNames = [NumStages]string{
	"queue_wait", "admission", "decision", "plan", "se_pick", "install", "barrier",
}

// String returns the stage's snake_case label value.
func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

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

// SpanKind classifies a span's role within a trace tree. Setup spans are
// the roots the routing path records; the other kind is a child attached
// to a setup trace so a cross-element flow setup reads as one causal
// story.
type SpanKind uint8

// Span kinds.
const (
	// KindSetup is a flow-setup span (the PR 5 tracer's only kind).
	KindSetup SpanKind = iota
	// KindFWInstall is a firewall STATE_INSTALL→STATE_ACK handoff to the
	// successor service element.
	KindFWInstall

	numSpanKinds = int(KindFWInstall) + 1
)

var kindNames = [numSpanKinds]string{"setup", "fw_install"}

// String returns the kind's snake_case label value.
func (k SpanKind) String() string {
	if int(k) < numSpanKinds {
		return kindNames[k]
	}
	return "unknown"
}

// Span is one flow setup's trace. All fields are plain values so the
// span ring can store spans by copy. Every setter is nil-receiver safe,
// letting instrumented code run unconditionally.
type Span struct {
	// ID is the span's sequence number (1-based, per FlowObs).
	ID uint64
	// TraceID links every span of one causal tree. Root spans carry
	// their own ID; children inherit the parent's TraceID.
	TraceID uint64
	// ParentID is the parent span within the trace (0 for roots).
	ParentID uint64
	// Kind classifies the span's role in the tree.
	Kind SpanKind
	// Switch is the ingress switch's datapath ID.
	Switch uint64
	// Key identifies the flow (zero except EthSrc for shed spans, which
	// are recorded before packet decode).
	Key flow.Key
	// Start is when the packet-in entered the ingress pipeline; End is
	// when the setup finished (packet released, or the failure point).
	Start, End time.Duration
	// Stages holds per-stage virtual durations.
	Stages [NumStages]time.Duration
	// Outcome classifies the result.
	Outcome Outcome
	// DecisionHit/PlanHit record fast-path cache behaviour.
	DecisionHit, PlanHit bool
	// BreakerSkips counts elements excluded by open circuit breakers
	// during SE pick.
	BreakerSkips uint32
	// Elements holds the first NumElements picked service-element IDs.
	Elements    [MaxSpanElements]uint64
	NumElements uint8
}

// SetStage records a stage duration (nil-safe).
func (sp *Span) SetStage(st Stage, d time.Duration) {
	if sp != nil {
		sp.Stages[st] = d
	}
}

// Stage returns a recorded stage duration (0 on nil).
func (sp *Span) Stage(st Stage) time.Duration {
	if sp == nil {
		return 0
	}
	return sp.Stages[st]
}

// SetOutcome records the span's outcome (nil-safe).
func (sp *Span) SetOutcome(o Outcome) {
	if sp != nil {
		sp.Outcome = o
	}
}

// MarkDecision records the decision-cache result (nil-safe).
func (sp *Span) MarkDecision(hit bool) {
	if sp != nil {
		sp.DecisionHit = hit
	}
}

// MarkPlan records the plan-cache result (nil-safe).
func (sp *Span) MarkPlan(hit bool) {
	if sp != nil {
		sp.PlanHit = hit
	}
}

// AddElement appends a picked service element (nil-safe; truncates at
// MaxSpanElements).
func (sp *Span) AddElement(id uint64) {
	if sp != nil && int(sp.NumElements) < MaxSpanElements {
		sp.Elements[sp.NumElements] = id
		sp.NumElements++
	}
}

// AddBreakerSkips accumulates breaker exclusions (nil-safe).
func (sp *Span) AddBreakerSkips(n uint32) {
	if sp != nil {
		sp.BreakerSkips += n
	}
}

// Total returns the span's end-to-end duration (0 on nil).
func (sp *Span) Total() time.Duration {
	if sp == nil {
		return 0
	}
	return sp.End - sp.Start
}

// DefaultRingCap is the span-ring capacity when NewFlowObs gets 0.
const DefaultRingCap = 4096

// FlowObs is the flow-setup observability facade handed to the
// controller: a registry plus the span machinery. A nil *FlowObs
// disables everything — StartSpan returns nil and every downstream
// call no-ops — so the single `!= nil` test at span start is the whole
// disabled-path cost.
type FlowObs struct {
	// Registry holds all metric families, including the span-derived
	// ones below; components share it to register their own.
	Registry *Registry

	ring     []Span
	next     int
	filled   int
	free     []*Span
	nextID   uint64
	recorded uint64

	stageHist  [NumStages]*Histogram
	totalHist  *Histogram
	completed  *Counter
	outcomes   [numOutcomes]*Counter
	childSpans [numSpanKinds]*Counter

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
		ring:     make([]Span, ringCap),
		free:     make([]*Span, 0, 8),
	}
	for st := 0; st < NumStages; st++ {
		fo.stageHist[st] = fo.Registry.Histogram(
			"livesec_flow_setup_stage_seconds",
			"Per-stage flow-setup latency; each stage observes once per completed setup.",
			DefaultLatencyBuckets, L("stage", Stage(st).String()))
	}
	fo.totalHist = fo.Registry.Histogram(
		"livesec_flow_setup_seconds",
		"End-to-end flow-setup latency, pipeline acceptance to packet release.",
		DefaultLatencyBuckets)
	fo.completed = fo.Registry.Counter(
		"livesec_flow_setups_completed_total",
		"Flow setups that installed entries and released the first packet.")
	for o := 0; o < numOutcomes; o++ {
		fo.outcomes[o] = fo.Registry.Counter(
			"livesec_flow_setup_spans_total",
			"Flow-setup trace spans recorded, by outcome.",
			L("outcome", Outcome(o).String()))
	}
	for k := int(KindSetup) + 1; k < numSpanKinds; k++ {
		fo.childSpans[k] = fo.Registry.Counter(
			"livesec_trace_child_spans_total",
			"Non-setup trace spans recorded, by kind (setup spans count in livesec_flow_setup_spans_total).",
			L("kind", SpanKind(k).String()))
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

// Enabled reports whether observability is on.
func (fo *FlowObs) Enabled() bool { return fo != nil }

// StartSpan opens a span starting at the given virtual time, reusing a
// pooled span when available. Returns nil when fo is nil.
func (fo *FlowObs) StartSpan(start time.Duration) *Span {
	if fo == nil {
		return nil
	}
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
	sp.TraceID = sp.ID
	sp.Start = start
	return sp
}

// StartChild opens a child span of the given kind inside parent's trace.
// The parent's identifiers and flow identity are copied immediately, so
// the child may be finished long after the parent span returned to the
// pool (a firewall handoff's ack). Returns nil when fo or parent is nil.
func (fo *FlowObs) StartChild(parent *Span, kind SpanKind, start time.Duration) *Span {
	if fo == nil || parent == nil {
		return nil
	}
	sp := fo.StartSpan(start)
	sp.Kind = kind
	sp.TraceID = parent.TraceID
	sp.ParentID = parent.ID
	sp.Switch = parent.Switch
	sp.Key = parent.Key
	return sp
}

// FinishSpan closes a span at virtual time now: completed setup
// outcomes feed the stage histograms, every setup outcome counts (child
// kinds count in their own family so the setup metrics keep their exact
// per-setup semantics), and the span is copied into the ring and
// returned to the pool. Nil-safe in both arguments.
func (fo *FlowObs) FinishSpan(sp *Span, now time.Duration) {
	if fo == nil || sp == nil {
		return
	}
	sp.End = now
	if sp.Kind == KindSetup {
		if sp.Outcome.Completed() {
			for i := 0; i < NumStages; i++ {
				fo.stageHist[i].ObserveDuration(sp.Stages[i])
			}
			fo.totalHist.ObserveDuration(sp.End - sp.Start)
			fo.completed.Inc()
		}
		fo.outcomes[sp.Outcome].Inc()
	} else {
		fo.childSpans[sp.Kind].Inc()
	}
	fo.ring[fo.next] = *sp
	fo.next++
	if fo.next == len(fo.ring) {
		fo.next = 0
	}
	if fo.filled < len(fo.ring) {
		fo.filled++
	}
	fo.recorded++
	fo.free = append(fo.free, sp)
}

// Recorded returns the number of spans ever finished.
func (fo *FlowObs) Recorded() uint64 {
	if fo == nil {
		return 0
	}
	return fo.recorded
}

// CompletedSetups returns the completed-setup count — the invariant
// denominator: every stage histogram holds exactly this many samples.
func (fo *FlowObs) CompletedSetups() uint64 {
	if fo == nil {
		return 0
	}
	return fo.completed.Value()
}

// Spans returns up to limit spans from the ring: newest first, or
// slowest first (by total duration, ties broken by ID) when slowest is
// set. limit <= 0 returns everything retained.
func (fo *FlowObs) Spans(limit int, slowest bool) []Span {
	if fo == nil || fo.filled == 0 {
		return nil
	}
	out := make([]Span, fo.filled)
	// Oldest retained span sits at next-filled (mod ring size).
	start := fo.next - fo.filled
	if start < 0 {
		start += len(fo.ring)
	}
	for i := 0; i < fo.filled; i++ {
		out[i] = fo.ring[(start+i)%len(fo.ring)]
	}
	if slowest {
		sort.Slice(out, func(i, j int) bool {
			if d1, d2 := out[i].Total(), out[j].Total(); d1 != d2 {
				return d1 > d2
			}
			return out[i].ID < out[j].ID
		})
	} else {
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
	}
	if limit > 0 && limit < len(out) {
		out = out[:limit]
	}
	return out
}

// Trace returns every retained span of one trace tree, ordered by span
// ID (creation order, so parents precede children). Nil when the trace
// has no retained spans.
func (fo *FlowObs) Trace(traceID uint64) []Span {
	if fo == nil || fo.filled == 0 || traceID == 0 {
		return nil
	}
	var out []Span
	start := fo.next - fo.filled
	if start < 0 {
		start += len(fo.ring)
	}
	for i := 0; i < fo.filled; i++ {
		sp := fo.ring[(start+i)%len(fo.ring)]
		if sp.TraceID == traceID {
			out = append(out, sp)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SlowestTraceSince returns the TraceID of the slowest retained setup
// span that finished at or after since (ties broken toward the lower
// span ID; 0 when none). The alert engine uses it to attach an exemplar
// trace to each firing alert.
func (fo *FlowObs) SlowestTraceSince(since time.Duration) uint64 {
	if fo == nil || fo.filled == 0 {
		return 0
	}
	var (
		best    uint64
		bestDur time.Duration = -1
		bestID  uint64
	)
	start := fo.next - fo.filled
	if start < 0 {
		start += len(fo.ring)
	}
	for i := 0; i < fo.filled; i++ {
		sp := &fo.ring[(start+i)%len(fo.ring)]
		if sp.Kind != KindSetup || sp.End < since {
			continue
		}
		if d := sp.End - sp.Start; d > bestDur || (d == bestDur && sp.ID < bestID) {
			best, bestDur, bestID = sp.TraceID, d, sp.ID
		}
	}
	return best
}

// StageSnapshot is one stage's distribution in a SetupSnapshot.
type StageSnapshot struct {
	Stage      string        `json:"stage"`
	Count      uint64        `json:"count"`
	SumSeconds float64       `json:"sum_seconds"`
	Buckets    []BucketCount `json:"buckets"`
}

// SetupSnapshot is the per-stage flow-setup latency report exported in
// livesec-bench -json. Within every stage the cumulative bucket counts
// end at CompletedSetups: each stage observes exactly once per
// completed setup.
type SetupSnapshot struct {
	CompletedSetups uint64          `json:"completed_setups"`
	Stages          []StageSnapshot `json:"stages"`
	Total           StageSnapshot   `json:"total"`
}

// SetupSnapshot captures the current stage histograms.
func (fo *FlowObs) SetupSnapshot() SetupSnapshot {
	if fo == nil {
		return SetupSnapshot{}
	}
	snap := SetupSnapshot{
		CompletedSetups: fo.CompletedSetups(),
		Stages:          make([]StageSnapshot, NumStages),
	}
	for i := 0; i < NumStages; i++ {
		snap.Stages[i] = stageSnapshot(Stage(i).String(), fo.stageHist[i])
	}
	snap.Total = stageSnapshot("total", fo.totalHist)
	return snap
}

func stageSnapshot(name string, h *Histogram) StageSnapshot {
	return StageSnapshot{
		Stage:      name,
		Count:      h.Count(),
		SumSeconds: h.Sum(),
		Buckets:    h.Buckets(),
	}
}

// StageMS is one stage duration in a SpanView, in milliseconds.
type StageMS struct {
	Stage string  `json:"stage"`
	MS    float64 `json:"ms"`
}

// SpanView is the JSON shape of one span for the /traces endpoint.
type SpanView struct {
	ID                uint64    `json:"id"`
	TraceID           uint64    `json:"trace_id"`
	ParentID          uint64    `json:"parent_id,omitempty"`
	Kind              string    `json:"kind"`
	Switch            uint64    `json:"switch"`
	Flow              string    `json:"flow"`
	Outcome           string    `json:"outcome"`
	StartMS           float64   `json:"start_ms"`
	TotalMS           float64   `json:"total_ms"`
	DecisionCacheHit  bool      `json:"decision_cache_hit"`
	PlanCacheHit      bool      `json:"plan_cache_hit"`
	BreakerExclusions uint32    `json:"breaker_exclusions,omitempty"`
	Elements          []uint64  `json:"service_elements,omitempty"`
	Stages            []StageMS `json:"stages"`
}

// View renders the span for JSON export.
func (sp *Span) View() SpanView {
	if sp == nil {
		return SpanView{}
	}
	v := SpanView{
		ID:                sp.ID,
		TraceID:           sp.TraceID,
		ParentID:          sp.ParentID,
		Kind:              sp.Kind.String(),
		Switch:            sp.Switch,
		Flow:              sp.Key.String(),
		Outcome:           sp.Outcome.String(),
		StartMS:           durMS(sp.Start),
		TotalMS:           durMS(sp.End - sp.Start),
		DecisionCacheHit:  sp.DecisionHit,
		PlanCacheHit:      sp.PlanHit,
		BreakerExclusions: sp.BreakerSkips,
		Stages:            make([]StageMS, NumStages),
	}
	for i := 0; i < NumStages; i++ {
		v.Stages[i] = StageMS{Stage: Stage(i).String(), MS: durMS(sp.Stages[i])}
	}
	for i := uint8(0); i < sp.NumElements; i++ {
		v.Elements = append(v.Elements, sp.Elements[i])
	}
	return v
}

func durMS(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
