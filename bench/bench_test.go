package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"livesec"
	"livesec/internal/core"
	"livesec/internal/netpkt"
	"livesec/internal/openflow"
	"livesec/internal/sim"
)

// Smoke sizes: the same code paths as the full workloads in about two
// seconds. They are reachable from tests only; the command has no flag
// for them.
var (
	smokeReplay = replayCalls{ns: 400, us: 80}
	smokeWire   = wireSize{hosts: 8, warmup: 300, outstanding: 4, openRate: 200, setups: 2, replay: smokeReplay}
	smokeBulk   = simSize{fit: livesec.ScaledFIT(), userBps: 2_000_000, warmup: 50 * time.Millisecond,
		perSec: 100 * time.Millisecond, attacks: 2, setups: 2, replay: smokeReplay}
	smokeChurn = simSize{fit: livesec.ScaledFIT(), churn: true, rules: 200, flowsPS: 200, warmup: 50 * time.Millisecond,
		perSec: 100 * time.Millisecond, setups: 2, replay: smokeReplay}
)

func TestPercentileNearestRank(t *testing.T) {
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {99.9, 100}, {100, 100}, {1, 1}} {
		if got := percentile(vs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// One stalled window moves a pooled p99 and leaves the windowed median
// where the other windows put it.
func TestWindowedMedianIgnoresOneStall(t *testing.T) {
	const windows, perWindow = 10, 1000
	var samples []sample
	var pooled []float64
	for w := 0; w < windows; w++ {
		for i := 0; i < perWindow; i++ {
			lat := int64(100+i%50) * 1000 // 100–149 µs
			if w == 3 && i < 200 {
				lat = 50_000_000 // a 50 ms stall hits a fifth of one window
			}
			samples = append(samples, sample{dueNS: int64(w)*1e9 + int64(i)*1e6, latNS: lat})
			pooled = append(pooled, float64(lat)/1e3)
		}
	}
	// A sample due after the last full window is dropped, not folded in.
	samples = append(samples, sample{dueNS: windows * 1e9, latNS: 1e12})
	ws := windowed(samples, 1e9, windows)
	if len(ws) != windows {
		t.Fatalf("%d windows, want %d", len(ws), windows)
	}
	p50, p99, minN := medianOf(ws)
	if minN != perWindow {
		t.Errorf("smallest window holds %d samples, want %d", minN, perWindow)
	}
	if p50 < 100 || p50 > 149 || p99 < 100 || p99 > 149 {
		t.Errorf("windowed p50 %v p99 %v, want both inside the unstalled 100–149 µs", p50, p99)
	}
	if ws[3].p99 != 50_000 {
		t.Errorf("the stalled window's own p99 = %v µs, want 50000", ws[3].p99)
	}
	sort.Float64s(pooled)
	if got := percentile(pooled, 99); got != 50_000 {
		t.Errorf("pooled p99 = %v µs, want the stall's 50000: the test no longer shows the difference", got)
	}
}

// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) = [2.75, 5.5, 8.25]
// and quantiles([3.1, 2.9, 3.0, 3.4, 2.8, 3.3], n=4) = [2.875, 3.05, 3.325].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3.1, 2.9, 3.0, 3.4, 2.8, 3.3})
	if math.Abs(q1-2.875) > 1e-12 || math.Abs(q2-3.05) > 1e-12 || math.Abs(q3-3.325) > 1e-12 {
		t.Errorf("quartiles = %v %v %v, want 2.875 3.05 3.325", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestWorseBy(t *testing.T) {
	lower, higher := metricDef{Better: "lower"}, metricDef{Better: "higher"}
	if got := worseBy(lower, 100, 112); math.Abs(got-0.12) > 1e-12 {
		t.Errorf("latency 100 → 112 is worse by %v, want 0.12", got)
	}
	if got := worseBy(higher, 100, 88); math.Abs(got-0.12) > 1e-12 {
		t.Errorf("throughput 100 → 88 is worse by %v, want 0.12", got)
	}
	if got := worseBy(higher, 100, 110); got >= 0 {
		t.Errorf("throughput 100 → 110 is worse by %v, want a negative share", got)
	}
}

func TestSeedFixesWireInputs(t *testing.T) {
	hosts := [2][]wireHost{wireHosts(0, 16), wireHosts(1, 16)}
	for _, miss := range []bool{true, false} {
		draw := func(seed int64) []setupInput {
			g := newWireGen(seed, miss, hosts)
			var out []setupInput
			for i := 0; i < 500; i++ {
				out = append(out, g.draw(i%2))
			}
			return out
		}
		a, b, c := draw(7), draw(7), draw(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("miss=%v: two generators of one seed drew different inputs", miss)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("miss=%v: seeds 7 and 8 drew the same inputs", miss)
		}
		seen := make(map[[4]uint32]bool)
		for _, in := range a {
			sel := [4]uint32{uint32(in.sw), in.src.port, in.dst.port, uint32(in.dport)}
			if miss && seen[sel] {
				t.Fatalf("wire_miss offered selector %v twice", sel)
			}
			seen[sel] = true
			if in.sport < 1<<15 || in.dport >= 1<<15 {
				t.Fatalf("ports %d → %d: initiator ports must be ≥ 32768 and service ports below", in.sport, in.dport)
			}
		}
		if !miss && len(seen) > 2*hitSelectors {
			t.Errorf("wire_hit used %d selectors, want at most %d", len(seen), 2*hitSelectors)
		}
	}
	// A switch's stream does not depend on how the two interleave.
	g1, g2 := newWireGen(7, true, hosts), newWireGen(7, true, hosts)
	var first []setupInput
	for i := 0; i < 10; i++ {
		first = append(first, g1.draw(0))
		g1.draw(1)
	}
	for i := 0; i < 10; i++ {
		if got := g2.draw(0); got != first[i] {
			t.Fatalf("switch 0's draw %d changed with the interleaving: %+v vs %+v", i, got, first[i])
		}
	}
}

func TestMetricValidator(t *testing.T) {
	if err := validateMetrics(endToEnd, perLayer); err != nil {
		t.Fatalf("the benchmark's own metric lists: %v", err)
	}
	ok := metricDef{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}
	layer := []metricDef{{Name: "x.y_z-1", Unit: "ns", Better: "lower"}}
	// many returns setup_s followed by n-1 more valid metrics.
	many := func(n int, bound float64) []metricDef {
		ms := []metricDef{ok}
		for i := 1; i < n; i++ {
			ms = append(ms, metricDef{Name: fmt.Sprintf("m%v.%03d", bound, i), Unit: "s", Better: "lower", Bound: bound})
		}
		return ms
	}
	cases := []struct {
		why        string
		e2e, layer []metricDef
	}{
		{"a space in a name", []metricDef{ok, {Name: "bad name", Unit: "s", Better: "lower", Bound: 0.1}}, layer},
		{"a name starting with a dot", []metricDef{ok, {Name: ".x", Unit: "s", Better: "lower", Bound: 0.1}}, layer},
		{"a 65-letter name", []metricDef{ok, {Name: strings.Repeat("a", 65), Unit: "s", Better: "lower", Bound: 0.1}}, layer},
		{"a unit with a micro sign", []metricDef{ok, {Name: "x", Unit: "µs", Better: "lower", Bound: 0.1}}, layer},
		{"a 17-letter unit", []metricDef{ok, {Name: "x", Unit: strings.Repeat("u", 17), Better: "lower", Bound: 0.1}}, layer},
		{"a direction that is neither", []metricDef{ok, {Name: "x", Unit: "s", Better: "faster", Bound: 0.1}}, layer},
		{"a bound over a quarter", []metricDef{ok, {Name: "x", Unit: "s", Better: "lower", Bound: 0.3}}, layer},
		{"an end-to-end metric with no bound", []metricDef{ok, {Name: "x", Unit: "s", Better: "lower"}}, layer},
		{"a bounded per-layer metric", []metricDef{ok}, []metricDef{{Name: "x", Unit: "s", Better: "lower", Bound: 0.1}}},
		{"a name used twice", []metricDef{ok}, []metricDef{{Name: "setup_s", Unit: "s", Better: "lower"}}},
		{"no setup_s", []metricDef{{Name: "x", Unit: "s", Better: "lower", Bound: 0.1}}, layer},
		{"setup_s in ms", []metricDef{{Name: "setup_s", Unit: "ms", Better: "lower", Bound: 0.1}}, layer},
		{"17 end-to-end metrics", many(17, 0.1), layer},
		{"129 per-layer metrics", []metricDef{ok}, many(130, 0)[1:]},
		{"no per-layer metric", []metricDef{ok}, nil},
	}
	for _, c := range cases {
		if err := validateMetrics(c.e2e, c.layer); err == nil {
			t.Errorf("%s was accepted", c.why)
		}
	}
	if err := validateMetrics(many(16, 0.1), many(129, 0)[1:]); err != nil {
		t.Errorf("16 end-to-end and 128 per-layer metrics were refused: %v", err)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []workload  `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(b) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(b))
	}
	return f
}

// BENCHMARK.json and the command's own lists name the same workloads
// and metrics, with the same units, directions and bounds.
func TestBenchmarkFileMatchesCommand(t *testing.T) {
	f := readBenchmarkFile(t)
	if !reflect.DeepEqual(f.Workloads, workloads) {
		t.Errorf("workloads differ:\n file    %+v\n command %+v", f.Workloads, workloads)
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end-to-end metrics differ:\n file    %+v\n command %+v", f.EndToEnd, endToEnd)
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in the file, %d in the command", len(f.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if g := f.PerLayer[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per-layer metric %d: file has %+v, command %+v", i, g, d)
		}
	}
	if f.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the command's default is %d", f.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(f.Paths, []string{"bench"}) || len(f.Command) == 0 {
		t.Errorf("paths %v command %v", f.Paths, f.Command)
	}
	for _, w := range f.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %+v: want a valid name and a one-line why of at most 200 characters", w)
		}
	}
	// 4 + 22 runs per workload, with set-up and two cold builds, must end
	// within 3420 s: the whole of a run may take 33 s on average.
	runs := 4 + 22*len(f.Workloads)
	if budget := (3420 - 2*60) / runs; budget < 33 {
		t.Errorf("%d runs leave %d s each; the workloads are sized for 33 s", runs, budget)
	}
}

var metricLine = regexp.MustCompile(`(?m)^  (\S+) +\S+ (\S+) +\((lower|higher) is better\)$`)

// checkPrinted runs printOutcome and checks that it prints exactly the
// metrics of the lists, by name and unit, and a result line holding the
// end-to-end metrics of an untraced run or the per-layer metrics of a
// traced one.
func checkPrinted(t *testing.T, out *outcome, traced bool) {
	t.Helper()
	var buf bytes.Buffer
	printOutcome(&buf, out, traced)
	want := append([]metricDef(nil), endToEnd...)
	if traced {
		want = append(want, perLayer...)
	}
	got := metricLine.FindAllStringSubmatch(buf.String(), -1)
	if len(got) != len(want) {
		t.Fatalf("printed %d metrics, want %d:\n%s", len(got), len(want), buf.String())
	}
	for i, d := range want {
		if got[i][1] != d.Name || got[i][2] != d.Unit || got[i][3] != d.Better {
			t.Errorf("printed metric %d is %v, want %s in %s, %s is better", i, got[i][1:], d.Name, d.Unit, d.Better)
		}
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var rep map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(rep) != 4 || rep["correct"] == nil || rep["attempted"] == nil || rep["failed"] == nil || rep["metrics"] == nil {
		t.Fatalf("result line has keys %v, want exactly correct, attempted, failed, metrics", rep)
	}
	var metrics map[string]reportedValue
	if err := json.Unmarshal(rep["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	list := endToEnd
	if traced {
		list = perLayer
	}
	if len(metrics) != len(list) {
		t.Errorf("result line holds %d metrics, want %d", len(metrics), len(list))
	}
	for _, d := range list {
		v, ok := metrics[d.Name]
		if !ok || v.Unit != d.Unit {
			t.Errorf("result line: %s = %+v (present %v), want unit %s", d.Name, v, ok, d.Unit)
		}
		if !traced && v.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v on %s; it must never be 0", d.Name, v.Value, out.Workload)
		}
	}
}

// The simulator workloads at smoke size: every oracle holds, one seed
// gives one fingerprint whether or not the run is traced, another seed
// gives another, and the traced run's shares sum to 1.
func TestSimWorkloadsSmoke(t *testing.T) {
	for _, c := range []struct {
		name string
		size simSize
	}{{"sim_bulk", smokeBulk}, {"sim_churn", smokeChurn}} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			plain, err := simWorkload(c.name, 5, 2, false, dir, c.size)
			if err != nil {
				t.Fatal(err)
			}
			if !plain.Correct || plain.Failed != 0 || plain.Attempted == 0 {
				t.Fatalf("untraced run: %+v", plain)
			}
			checkPrinted(t, plain, false)
			traced, err := simWorkload(c.name, 5, 2, true, dir, c.size)
			if err != nil {
				t.Fatal(err)
			}
			if !traced.Correct {
				t.Fatalf("traced run failed: %s", traced.Why)
			}
			checkPrinted(t, traced, true)
			if plain.Fingerprint != traced.Fingerprint {
				t.Errorf("seed 5 ended in %s untraced and %s traced", plain.Fingerprint, traced.Fingerprint)
			}
			other, err := simWorkload(c.name, 6, 2, false, dir, c.size)
			if err != nil {
				t.Fatal(err)
			}
			if !other.Correct {
				t.Errorf("seed 6 failed: %s", other.Why)
			}
			if other.Fingerprint == plain.Fingerprint {
				t.Errorf("seeds 5 and 6 both ended in %s: the seed does not reach the inputs", plain.Fingerprint)
			}
			checkShares(t, traced)
			checkSpans(t, traced.SpanFile)
		})
	}
}

func checkShares(t *testing.T, out *outcome) {
	t.Helper()
	sum := out.PerLayer["share.unattributed"]
	for _, l := range shareLayers {
		sum += out.PerLayer["share."+l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("%s: the shares sum to %v, want 1", out.Workload, sum)
	}
}

func checkSpans(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct{ Spans []span }
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]int)
	for i, s := range f.Spans {
		names[s.Name]++
		if s.EndNS < s.StartNS || s.Parent >= i {
			t.Fatalf("span %d %+v: ends before it starts, or its parent comes after it", i, s)
		}
		if s.Parent >= 0 {
			p := f.Spans[s.Parent]
			if p.Setup != s.Setup || s.StartNS < p.StartNS || s.EndNS > p.EndNS {
				t.Fatalf("span %d %+v does not lie inside its parent %+v", i, s, p)
			}
		}
	}
	for _, want := range []string{"setup", "core.setup", "netpkt.unmarshal", "monitor.record", "openflow.decode", "policy.lookup", "dataplane.receive_hit"} {
		if names[want] == 0 {
			t.Errorf("no span named %s in %s", want, path)
		}
	}
}

// lockedConn serializes a controller's handlers the way livesecd's event
// loop does, so that two switch connections can drive one controller.
type lockedConn struct {
	openflow.Conn
	mu *sync.Mutex
}

func (c lockedConn) SetHandler(fn func(openflow.Message)) {
	c.Conn.SetHandler(func(m openflow.Message) {
		c.mu.Lock()
		defer c.mu.Unlock()
		fn(m)
	})
}

// queuedPipe is net.Pipe with writes that do not wait for the reader,
// as a socket's are: a handler that sends while its peer's handler is
// also sending would otherwise deadlock the pair.
func queuedPipe(t *testing.T) (a, b net.Conn) {
	pa, pb := net.Pipe()
	wrap := func(c net.Conn) net.Conn {
		q := make(chan []byte, 4096) // more frames than the test ever has in flight
		go func() {
			for buf := range q {
				if _, err := c.Write(buf); err != nil {
					return
				}
			}
		}()
		t.Cleanup(func() { c.Close() })
		return queuedConn{c, q}
	}
	return wrap(pa), wrap(pb)
}

type queuedConn struct {
	net.Conn
	q chan []byte
}

func (c queuedConn) Write(p []byte) (int, error) {
	c.q <- append([]byte(nil), p...)
	return len(p), nil
}

// The emulated switches against a real controller, in process, over
// net.Pipe: the handshake completes, LLDP crosses the emulated fabric in
// both directions, the hosts are learnt, and the tracker validates the
// controller's replies to generated setups — and refuses a wrong one.
func TestEmulatedSwitchAgainstController(t *testing.T) {
	var mu sync.Mutex
	ctrl := core.New(core.Config{Engine: sim.NewEngine(1)})
	tr := newTracker()
	var sws [2]*ofSwitch
	var hosts [2][]wireHost
	for i := range sws {
		a, b := queuedPipe(t)
		hosts[i] = wireHosts(i, 4)
		sws[i] = newOFSwitch(i, a, hosts[i])
		sws[i].onFlowMod, sws[i].onPacketOut = tr.flowMod, tr.packetOut
		mu.Lock()
		ctrl.AddSwitch(lockedConn{openflow.NewNetConn(b), &mu})
		mu.Unlock()
	}
	sws[0].peer, sws[1].peer = sws[1], sws[0]
	sws[0].start()
	sws[1].start()
	await := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	locked := func(f func() bool) func() bool {
		return func() bool { mu.Lock(); defer mu.Unlock(); return f() }
	}
	await("both features replies", locked(func() bool { return ctrl.NumSwitches() == 2 }))
	mu.Lock()
	ctrl.DiscoverNow()
	mu.Unlock()
	await("LLDP both ways", func() bool { return sws[0].lldpRelayed.Load() > 0 && sws[1].lldpRelayed.Load() > 0 })
	await("the full mesh", locked(ctrl.FullMesh))
	sws[0].announce()
	sws[1].announce()
	await("8 hosts learnt", locked(func() bool { return len(ctrl.Hosts()) == 8 }))

	gen := newWireGen(3, true, hosts)
	for i := 0; i < 20; i++ {
		in := gen.draw(i % 2)
		now := tr.now()
		tr.offer(in, now-int64(time.Millisecond), now) // due a millisecond before it was sent
		sws[in.sw].conn.Send(in.packetIn())
	}
	await("20 validated setups", func() bool { return tr.pending() == 0 })
	attempted, failed, unexpected, why := tr.totals()
	if attempted != 20 || failed != 0 || unexpected != 0 {
		t.Fatalf("%d attempted, %d failed, %d unexpected: %s", attempted, failed, unexpected, why)
	}
	for _, r := range tr.take() {
		// Latency runs from the due time, so it holds the millisecond the
		// generator was late by.
		if lat := r.poNS - r.dueNS; lat < int64(time.Millisecond) || r.validNS < r.poNS {
			t.Errorf("result %+v: latency %d ns does not include the generator's lateness", r, lat)
		}
	}
	if n := sws[0].flowMods.Load() + sws[1].flowMods.Load(); n != 80 {
		t.Errorf("switches counted %d flow-mods for 20 setups, want 80", n)
	}

	// A setup whose expectation is wrong must fail: claim the destination
	// sits on another port than the one the controller learnt.
	in := gen.draw(0)
	in.dst.port++
	now := tr.now()
	tr.offer(in, now, now)
	sws[0].conn.Send(in.packetIn())
	await("the wrong setup to be settled", func() bool { _, f, u, _ := tr.totals(); return f+u > 0 })
	if _, failed, unexpected, why := tr.totals(); failed+unexpected == 0 || why == "" {
		t.Errorf("a flow-mod to the wrong port passed validation")
	}
}

func TestTrackerTimesOutAndReturnsTokens(t *testing.T) {
	tr := newTracker()
	tr.tokens = make(chan int, 2)
	hosts := [2][]wireHost{wireHosts(0, 2), wireHosts(1, 2)}
	gen := newWireGen(1, true, hosts)
	in := gen.draw(1)
	old := tr.now() - int64(2*setupTimeout)
	tr.offer(in, old, old)
	probe := gen.probe(0, 0)
	tr.offer(probe, old, old)
	tr.reap()
	attempted, failed, _, why := tr.totals()
	if attempted != 1 || failed != 1 || !strings.Contains(why, "5 of 5 replies missing") {
		t.Errorf("after the timeout: %d attempted, %d failed, %q; want the setup failed and the unanswered probe forgotten", attempted, failed, why)
	}
	if len(tr.tokens) != 1 || <-tr.tokens != 1 {
		t.Errorf("the timed-out setup must return switch 1's token, and the probe none")
	}
	if tr.pending() != 0 || tr.probeAnswered(0) {
		t.Errorf("%d setups still pending, probe answered %v", tr.pending(), tr.probeAnswered(0))
	}
}

func TestOwnLateness(t *testing.T) {
	for _, c := range []struct{ now, due, free, want int64 }{
		{now: 150, due: 100, free: 40, want: 50},  // woke 50 late, nothing in the way
		{now: 150, due: 100, free: 140, want: 10}, // the previous send returned at 140: 10 is the generator's
		{now: 100, due: 100, free: 0, want: 0},
	} {
		if got := ownLateness(c.now, c.due, c.free); got != c.want {
			t.Errorf("ownLateness(now %d, due %d, free %d) = %d, want %d", c.now, c.due, c.free, got, c.want)
		}
	}
}

// The replay topology is the one testbed.BuildFIT builds: same switch
// for every host and element, same port numbering.
func TestFitTopoMatchesTestbed(t *testing.T) {
	fo := livesec.ScaledFIT()
	f, err := livesec.BuildFIT(fo, livesec.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Discover(); err != nil {
		t.Fatal(err)
	}
	// Elements report in with their next heartbeat; hosts are learnt from
	// their first frame.
	for _, h := range f.Hosts {
		h.Send(netpkt.NewARPRequest(h.MAC, h.IP, h.IP))
	}
	if err := f.Run(settle); err != nil {
		t.Fatal(err)
	}
	topo, users, gateway := fitTopo(fo)
	if len(topo) != len(f.Switches) || len(users) != fo.WiredUsers+fo.WirelessUsers {
		t.Fatalf("%d switches %d users, testbed has %d and %d", len(topo), len(users), len(f.Switches), fo.WiredUsers+fo.WirelessUsers)
	}
	where := make(map[livesec.IPv4Addr][2]uint64)
	for _, h := range f.Controller.Hosts() {
		where[h.IP] = [2]uint64{h.DPID, uint64(h.Port)}
	}
	check := func(h wireHost, dpid uint64) {
		if got, want := where[h.ip], [2]uint64{dpid, uint64(h.port)}; got != want {
			t.Errorf("%v: replay puts it at switch/port %v, the testbed's controller learnt %v", h.ip, want, got)
		}
	}
	elems := 0
	for _, sw := range topo {
		for _, h := range sw.hosts {
			check(h, sw.dpid)
		}
		for _, e := range sw.elems {
			check(e.host, sw.dpid)
			elems++
		}
	}
	if elems != len(f.Elements) || gateway.ip != livesec.GatewayIP {
		t.Errorf("%d elements, gateway %v; testbed has %d and %v", elems, gateway.ip, len(f.Elements), livesec.GatewayIP)
	}
}

// The wire workloads at smoke size against a livesecd built from this
// checkout, and a daemon that dies mid-run.
func TestWireWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs livesecd")
	}
	bin := filepath.Join(t.TempDir(), "livesecd")
	if b, err := exec.Command("go", "build", "-o", bin, "livesec/cmd/livesecd").CombinedOutput(); err != nil {
		t.Fatalf("go build livesecd: %v\n%s", err, b)
	}
	dir := t.TempDir()
	for _, name := range []string{"wire_miss", "wire_hit"} {
		for _, traced := range []bool{false, true} {
			out, err := wireWorkload(name, bin, 9, 2, traced, dir, smokeWire)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < smokeWire.warmup {
				t.Fatalf("%s traced=%v: %+v", name, traced, out)
			}
			checkPrinted(t, out, traced)
			if traced {
				checkShares(t, out)
				checkSpans(t, out.SpanFile)
				if got := out.PerLayer["livesecd.flowmods_per_setup"]; got != 4 {
					t.Errorf("%s: %v flow-mods per setup, want 4", name, got)
				}
				if hit := out.PerLayer["core.decision_hit_ratio"]; (name == "wire_miss") != (hit < 0.5) {
					t.Errorf("%s: replay's decision-cache hit ratio is %v", name, hit)
				}
			}
		}
	}

	rig, _, err := newWireRig(bin, 1, true, smokeWire)
	if err != nil {
		t.Fatal(err)
	}
	defer rig.close()
	_ = rig.d.cmd.Process.Kill()
	<-rig.d.exited
	if _, err := rig.closedLoop(2, 0, 200*time.Millisecond); err == nil || !strings.Contains(err.Error(), "livesecd exited mid-run") {
		t.Errorf("a killed daemon gave %v, want the workload to fail with its exit", err)
	}
}
