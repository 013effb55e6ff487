package obs

import (
	"reflect"
	"testing"
	"time"
	"unsafe"

	"livesec/internal/flow"
)

func finishOne(fo *FlowObs, start, total time.Duration, o Outcome) *Span {
	sp := fo.StartSpan(start)
	sp.SetOutcome(o)
	fo.FinishSpan(sp, start+total)
	return sp
}

func TestSpanLifecycle(t *testing.T) {
	fo := NewFlowObs(8)
	sp := fo.StartSpan(10 * time.Millisecond)
	if sp == nil || sp.ID != 1 {
		t.Fatalf("first span = %+v", sp)
	}
	sp.Switch = 7
	sp.Key = flow.Key{EthType: 0x0800}
	sp.MarkPlan(true)
	sp.AddElement(3)
	sp.AddBreakerSkips(2)
	sp.SetOutcome(OutcomeChained)
	fo.FinishSpan(sp, 14*time.Millisecond)

	if fo.Recorded() != 1 || fo.CompletedSetups() != 1 {
		t.Fatalf("recorded=%d completed=%d, want 1/1", fo.Recorded(), fo.CompletedSetups())
	}
	spans := fo.Spans(0, false)
	if len(spans) != 1 {
		t.Fatalf("got %d spans", len(spans))
	}
	got := spans[0]
	if got.Switch != 7 || !got.PlanHit || got.BreakerSkips != 2 ||
		got.NumElements != 1 || got.Elements[0] != 3 || got.Outcome != OutcomeChained {
		t.Fatalf("ring copy lost fields: %+v", got)
	}
	if got.Total() != 4*time.Millisecond {
		t.Fatalf("total = %v, want 4ms", got.Total())
	}
}

func TestStageCountsMatchCompleted(t *testing.T) {
	fo := NewFlowObs(16)
	// 3 completed (one of each completed outcome), 3 not.
	finishOne(fo, 0, time.Millisecond, OutcomeRouted)
	finishOne(fo, time.Millisecond, 2*time.Millisecond, OutcomeChained)
	finishOne(fo, 2*time.Millisecond, time.Millisecond, OutcomeFailOpen)
	finishOne(fo, 3*time.Millisecond, 0, OutcomeDenied)
	finishOne(fo, 3*time.Millisecond, 0, OutcomeShed)
	finishOne(fo, 4*time.Millisecond, 0, OutcomeIncomplete)

	if fo.Recorded() != 6 {
		t.Fatalf("recorded = %d, want 6", fo.Recorded())
	}
	if fo.CompletedSetups() != 3 {
		t.Fatalf("completed = %d, want 3", fo.CompletedSetups())
	}
	// The invariant: the setup-latency histogram observes exactly once
	// per completed setup, each sample the span's total.
	h := fo.Registry.Histogram("livesec_flow_setup_seconds", "", nil)
	if h.Count() != 3 {
		t.Fatalf("total count = %d, want 3", h.Count())
	}
	if n := h.CountAtOrBelow(0.001); n != 2 {
		t.Fatalf("setups at or below 1ms = %d, want 2 (1ms, 1ms; not 2ms)", n)
	}
}

func TestRingBounded(t *testing.T) {
	fo := NewFlowObs(4)
	for i := 0; i < 10; i++ {
		finishOne(fo, time.Duration(i)*time.Millisecond, time.Millisecond, OutcomeRouted)
	}
	if fo.Recorded() != 10 {
		t.Fatalf("recorded = %d", fo.Recorded())
	}
	spans := fo.Spans(0, false)
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	// Newest first: IDs 10, 9, 8, 7.
	for i, want := range []uint64{10, 9, 8, 7} {
		if spans[i].ID != want {
			t.Fatalf("spans[%d].ID = %d, want %d", i, spans[i].ID, want)
		}
	}
	if got := fo.Spans(2, false); len(got) != 2 || got[0].ID != 10 {
		t.Fatalf("limit=2 gave %+v", got)
	}
}

func TestSpansSlowest(t *testing.T) {
	fo := NewFlowObs(8)
	finishOne(fo, 0, 2*time.Millisecond, OutcomeRouted)  // ID 1
	finishOne(fo, 0, 5*time.Millisecond, OutcomeRouted)  // ID 2
	finishOne(fo, 0, time.Millisecond, OutcomeRouted)    // ID 3
	finishOne(fo, 0, 5*time.Millisecond, OutcomeChained) // ID 4 (tie with 2)
	spans := fo.Spans(0, true)
	wantIDs := []uint64{2, 4, 1, 3} // by total desc, ties by ID asc
	for i, want := range wantIDs {
		if spans[i].ID != want {
			t.Fatalf("slowest[%d].ID = %d, want %d (order %v)", i, spans[i].ID, want, wantIDs)
		}
	}
}

func TestSpanPoolReuse(t *testing.T) {
	fo := NewFlowObs(8)
	sp1 := fo.StartSpan(0)
	sp1.SetOutcome(OutcomeRouted)
	sp1.AddElement(99)
	fo.FinishSpan(sp1, time.Millisecond)
	sp2 := fo.StartSpan(time.Millisecond)
	if sp2 != sp1 {
		t.Fatalf("pool did not reuse the span")
	}
	// Reused span must be zeroed apart from ID/Start.
	if sp2.ID != 2 || sp2.NumElements != 0 || sp2.Outcome != OutcomeRouted || sp2.End != 0 {
		t.Fatalf("reused span not reset: %+v", sp2)
	}
}

func TestSpanView(t *testing.T) {
	fo := NewFlowObs(8)
	sp := fo.StartSpan(10 * time.Millisecond)
	sp.Switch = 3
	sp.MarkPlan(true)
	sp.AddElement(5)
	sp.AddBreakerSkips(1)
	sp.SetOutcome(OutcomeChained)
	fo.FinishSpan(sp, 12*time.Millisecond)

	v := fo.Spans(1, false)[0].View()
	if v.ID != 1 || v.Switch != 3 || v.Outcome != "chained" ||
		v.StartMS != 10 || v.TotalMS != 2 || !v.PlanCacheHit ||
		v.BreakerExclusions != 1 || len(v.Elements) != 1 || v.Elements[0] != 5 {
		t.Fatalf("view = %+v", v)
	}
}

func TestFlowObsMetricsLint(t *testing.T) {
	fo := NewFlowObs(8)
	finishOne(fo, 0, time.Millisecond, OutcomeRouted)
	finishOne(fo, 0, 0, OutcomeShed)
	text := fo.Registry.Text()
	if err := LintText(text); err != nil {
		t.Fatalf("FlowObs registry text fails lint: %v\n%s", err, text)
	}
}

func TestStageOutcomeStrings(t *testing.T) {
	if OutcomeFailOpen.String() != "fail_open" {
		t.Fatalf("outcome names wrong")
	}
	if Outcome(200).String() != "unknown" {
		t.Fatalf("out-of-range names not unknown")
	}
	if !OutcomeFailOpen.Completed() || OutcomeShed.Completed() {
		t.Fatalf("Completed() classification wrong")
	}
}

// A span is plain values, at most 120 bytes: the ring of DefaultRingCap
// spans holds no pointer for the collector to scan, and a per-span
// array (the seven stage durations were 56 bytes) cannot creep back
// unnoticed.
func TestSpanCompact(t *testing.T) {
	if got := unsafe.Sizeof(Span{}); got > 120 {
		t.Errorf("Span is %d bytes, want at most 120", got)
	}
	var scan func(path string, typ reflect.Type)
	scan = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Bool, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Int64:
		case reflect.Array:
			scan(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := range typ.NumField() {
				f := typ.Field(i)
				scan(path+"."+f.Name, f.Type)
			}
		default:
			t.Errorf("%s is a %s, want a number, a bool, or an array or struct of them", path, typ)
		}
	}
	scan("Span", reflect.TypeOf(Span{}))
}

// BenchmarkFinishSpan is one setup's span, started, marked and finished
// on a ring already holding DefaultRingCap spans: what every flow setup
// pays for its trace.
func BenchmarkFinishSpan(b *testing.B) {
	fo := NewFlowObs(0)
	key := flow.Key{EthType: 0x0800, IPProto: 6, SrcPort: 40000, DstPort: 80}
	var now time.Duration
	setup := func() {
		sp := fo.StartSpan(now)
		sp.Switch, sp.Key = 1, key
		sp.MarkPlan(true)
		sp.AddElement(2)
		sp.SetOutcome(OutcomeChained)
		now += time.Microsecond
		fo.FinishSpan(sp, now)
	}
	for range DefaultRingCap {
		setup()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		setup()
	}
}
