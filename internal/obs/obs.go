// Package obs is LiveSec's deterministic observability subsystem: a
// metrics registry (counters, gauges, fixed-bucket histograms keyed by
// name+labels) and per-flow setup trace spans (trace.go), both driven
// exclusively by the simulation clock.
//
// Design constraints, in order:
//
//   - Allocation-free hot path. Incrementing a counter, setting a gauge,
//     observing a histogram sample, and recording a finished span all
//     touch preallocated memory only; handles are resolved once at
//     registration time, never per event.
//   - Always on. Every controller owns a FlowObs (core.New makes one),
//     so instrumented code carries no "is it enabled" test, and the
//     instrumentation only reads what the simulation does: a run
//     delivers the same whether anyone reads its metrics or not.
//   - Deterministic snapshots. All values derive from virtual time and
//     event counts; the text exposition (expose.go) renders families and
//     series in sorted order, so two identical runs produce identical
//     bytes.
//
// The registry is NOT goroutine-safe: it expects the single-threaded
// discipline of the simulation event loop. Readers that live on other
// goroutines (the monitor HTTP API) must serialize snapshots with the
// owning loop (monitor.HandlerConfig.Sync).
package obs

import "sort"

// Label is one name="value" dimension of a metric series.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing value.
type Counter struct{ v uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is a value that can go up and down.
type Gauge struct{ v float64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v = v }

// Add adjusts the value by d.
func (g *Gauge) Add(d float64) { g.v += d }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// kind is a metric family's type.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindCounterFunc
	kindGaugeFunc
	kindHistogram
)

// exposition type string per kind. Sampled (func) families expose as
// their plain counterparts.
func (k kind) String() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one label combination within a family; exactly one of the
// value fields is set, matching the family kind.
type series struct {
	labels []Label
	key    string // canonical sorted rendering, for dedup and ordering
	c      *Counter
	g      *Gauge
	fn     func() float64
	h      *Histogram
}

// family groups all series sharing a metric name.
type family struct {
	name   string
	help   string
	kind   kind
	series []*series
	byKey  map[string]*series
}

// Registry holds metric families. The zero value is not usable; create
// with NewRegistry.
type Registry struct {
	byName map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// family returns (creating if needed) the named family, panicking on a
// kind conflict — two call sites disagreeing about a metric's type is a
// programming error worth failing loudly on.
func (r *Registry) family(name, help string, k kind) *family {
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, byKey: make(map[string]*series)}
		r.byName[name] = f
		return f
	}
	if f.kind != k {
		panic("obs: metric " + name + " registered as " + f.kind.String() + " and " + k.String())
	}
	return f
}

// getOrCreate returns the series for the label set, creating it (with
// labels sorted by name) on first use.
func (f *family) getOrCreate(labels []Label) *series {
	key := labelKey(labels)
	if s, ok := f.byKey[key]; ok {
		return s
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	s := &series{labels: sorted, key: key}
	f.byKey[key] = s
	f.series = append(f.series, s)
	sort.Slice(f.series, func(i, j int) bool { return f.series[i].key < f.series[j].key })
	return s
}

// Counter returns the counter for name+labels, registering it on first
// use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.family(name, help, kindCounter).getOrCreate(labels)
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// Gauge returns the gauge for name+labels, registering it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.family(name, help, kindGauge).getOrCreate(labels)
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// CounterFunc registers a counter series whose value is sampled from fn
// at exposition time — zero cost on the code path that owns the value.
// Re-registering the same name+labels replaces fn (a rebuilt component
// takes over its series).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.family(name, help, kindCounterFunc).getOrCreate(labels).fn = fn
}

// GaugeFunc registers a sampled gauge series; semantics as CounterFunc.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.family(name, help, kindGaugeFunc).getOrCreate(labels).fn = fn
}

// Histogram returns the histogram for name+labels, registering it with
// the given bucket upper bounds (seconds; an implicit +Inf bucket is
// appended) on first use. Bounds are fixed at registration: later calls
// for the same family ignore the argument.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	s := r.family(name, help, kindHistogram).getOrCreate(labels)
	if s.h == nil {
		s.h = newHistogram(bounds)
	}
	return s.h
}

// Value returns the current value of the named counter, gauge, or
// sampled-func series, and whether the series exists. Histogram series
// report false. The alert engine samples rule inputs through this
// without holding handles, so rules can reference metrics that
// components register conditionally.
func (r *Registry) Value(name string, labels ...Label) (float64, bool) {
	f, ok := r.byName[name]
	if !ok || f.kind == kindHistogram {
		return 0, false
	}
	s, ok := f.byKey[labelKey(labels)]
	if !ok {
		return 0, false
	}
	return s.value(), true
}

// sortedFamilies returns families in name order.
func (r *Registry) sortedFamilies() []*family {
	out := make([]*family, 0, len(r.byName))
	for _, f := range r.byName {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// value samples a series' current value for exposition.
func (s *series) value() float64 {
	switch {
	case s.c != nil:
		return float64(s.c.v)
	case s.g != nil:
		return s.g.v
	case s.fn != nil:
		return s.fn()
	}
	return 0
}
