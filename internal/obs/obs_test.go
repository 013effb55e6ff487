package obs

import (
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("livesec_test_total", "A test counter.")
	c.Inc()
	c.Add(2)
	if got := c.Value(); got != 3 {
		t.Fatalf("counter value = %d, want 3", got)
	}
	// Same name+labels returns the same handle.
	if c2 := r.Counter("livesec_test_total", "A test counter."); c2 != c {
		t.Fatalf("re-registration returned a different counter")
	}

	g := r.Gauge("livesec_test_depth", "A test gauge.", L("lane", "ctrl"))
	g.Set(4)
	g.Add(-1)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge value = %v, want 3", got)
	}
	// Different labels are a distinct series.
	g2 := r.Gauge("livesec_test_depth", "A test gauge.", L("lane", "packetin"))
	if g2 == g {
		t.Fatalf("distinct label sets share a gauge")
	}
	if g2.Value() != 0 {
		t.Fatalf("fresh series not zero")
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("livesec_conflict", "c")
	defer func() {
		if recover() == nil {
			t.Fatalf("registering same name as gauge did not panic")
		}
	}()
	r.Gauge("livesec_conflict", "g")
}

func TestLabelOrderCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("livesec_lbl_total", "", L("b", "2"), L("a", "1"))
	b := r.Counter("livesec_lbl_total", "", L("a", "1"), L("b", "2"))
	if a != b {
		t.Fatalf("label order created distinct series")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("livesec_t_seconds", "T.", []float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.001, 0.005, 0.05, 0.5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	for le, want := range map[float64]uint64{0.001: 2, 0.01: 3, 0.1: 4} {
		if got := h.CountAtOrBelow(le); got != want {
			t.Fatalf("CountAtOrBelow(%g) = %d, want %d", le, got, want)
		}
	}
	// The exposed buckets are cumulative and the +Inf bucket equals
	// Count() — the exposition invariant.
	text := r.Text()
	for _, want := range []string{
		`livesec_t_seconds_bucket{le="0.001"} 2`,
		`livesec_t_seconds_bucket{le="0.01"} 3`,
		`livesec_t_seconds_bucket{le="0.1"} 4`,
		`livesec_t_seconds_bucket{le="+Inf"} 5`,
		"livesec_t_seconds_count 5",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestGoldenExposition pins the exact text exposition bytes for a small
// registry covering every kind.
func TestGoldenExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("livesec_a_total", "Things that happened.", L("kind", "x")).Add(7)
	r.Counter("livesec_a_total", "Things that happened.", L("kind", "y")).Add(2)
	r.Gauge("livesec_depth", "Current depth.").Set(3.5)
	r.GaugeFunc("livesec_sampled", "Sampled value.", func() float64 { return 42 })
	h := r.Histogram("livesec_lat_seconds", "Latency.", []float64{0.001, 0.01})
	h.Observe(0.0004)
	h.Observe(0.004)
	h.Observe(4)

	want := strings.Join([]string{
		"# HELP livesec_a_total Things that happened.",
		"# TYPE livesec_a_total counter",
		`livesec_a_total{kind="x"} 7`,
		`livesec_a_total{kind="y"} 2`,
		"# HELP livesec_depth Current depth.",
		"# TYPE livesec_depth gauge",
		"livesec_depth 3.5",
		"# HELP livesec_lat_seconds Latency.",
		"# TYPE livesec_lat_seconds histogram",
		`livesec_lat_seconds_bucket{le="0.001"} 1`,
		`livesec_lat_seconds_bucket{le="0.01"} 2`,
		`livesec_lat_seconds_bucket{le="+Inf"} 3`,
		"livesec_lat_seconds_sum 4.0044",
		"livesec_lat_seconds_count 3",
		"# HELP livesec_sampled Sampled value.",
		"# TYPE livesec_sampled gauge",
		"livesec_sampled 42",
		"",
	}, "\n")
	got := r.Text()
	if got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if err := LintText(got); err != nil {
		t.Fatalf("golden text fails lint: %v", err)
	}
}

func TestExpositionDeterministic(t *testing.T) {
	build := func(order []string) string {
		r := NewRegistry()
		for _, lane := range order {
			r.Gauge("livesec_depth", "d", L("lane", lane)).Set(1)
		}
		r.Counter("livesec_a_total", "a").Inc()
		return r.Text()
	}
	a := build([]string{"ctrl", "packetin"})
	b := build([]string{"packetin", "ctrl"})
	if a != b {
		t.Fatalf("registration order changed exposition:\n%s\nvs\n%s", a, b)
	}
}

func TestEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("livesec_esc_total", "line1\nline2 \\ end", L("v", "a\"b\\c\nd")).Inc()
	got := r.Text()
	if !strings.Contains(got, `# HELP livesec_esc_total line1\nline2 \\ end`) {
		t.Fatalf("HELP not escaped: %q", got)
	}
	if !strings.Contains(got, `livesec_esc_total{v="a\"b\\c\nd"} 1`) {
		t.Fatalf("label value not escaped: %q", got)
	}
	if err := LintText(got); err != nil {
		t.Fatalf("escaped text fails lint: %v", err)
	}
}

func TestLintText(t *testing.T) {
	cases := []struct {
		name    string
		text    string
		wantErr string // substring; empty = valid
	}{
		{"empty", "", ""},
		{"plain sample", "a_total 1\n", ""},
		{"labeled", `a_total{x="1"} 2` + "\n", ""},
		{"timestamp", "a_total 1 1700000000\n", ""},
		{"inf value", "a +Inf\n", ""},
		{"comment", "# just a comment\n", ""},
		{"bad name", "9bad 1\n", "bad metric name"},
		{"no value", "a_total\n", "no value"},
		{"bad value", "a_total x\n", "bad value"},
		{"bad timestamp", "a_total 1 zzz\n", "bad timestamp"},
		{"bad label name", `a{9x="1"} 2` + "\n", "bad label"},
		{"unquoted label", `a{x=1} 2` + "\n", "bad label"},
		{"unterminated labels", `a{x="1" 2` + "\n", "unterminated"},
		{"bad type", "# TYPE a frobnicator\n", "bad type"},
		{"dup type", "# TYPE a_total counter\n# TYPE a_total counter\n", "duplicate # TYPE"},
		{"counter no total suffix", "# TYPE a counter\na 1\n", "lacks the _total suffix"},
		{"total gauge ok", "# TYPE a_total gauge\na_total 1\n", ""},
		{"empty help", "# HELP a\na 1\n", "empty HELP"},
		{"blank help", "# HELP a \na 1\n", "empty HELP"},
		{"type after sample", "a 1\n# TYPE a counter\n", "after its samples"},
		{"bucket no le", "# TYPE h histogram\nh_bucket 1\nh_count 1\n", "without le"},
		{
			"non-cumulative",
			"# TYPE h histogram\n" + `h_bucket{le="1"} 5` + "\n" + `h_bucket{le="+Inf"} 3` + "\n",
			"not cumulative",
		},
		{
			"missing inf",
			"# TYPE h histogram\n" + `h_bucket{le="1"} 5` + "\n",
			"no +Inf bucket",
		},
		{
			"inf count mismatch",
			"# TYPE h histogram\n" + `h_bucket{le="+Inf"} 3` + "\nh_count 4\n",
			"!= count",
		},
		{
			"valid histogram",
			"# TYPE h histogram\n" + `h_bucket{le="0.1"} 1` + "\n" + `h_bucket{le="+Inf"} 2` + "\nh_sum 0.5\nh_count 2\n",
			"",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := LintText(tc.text)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("LintText(%q) = %v, want nil", tc.text, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("LintText(%q) = %v, want error containing %q", tc.text, err, tc.wantErr)
			}
		})
	}
}

func TestFuncSeriesReplaced(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("livesec_fn", "fn", func() float64 { return 1 })
	r.GaugeFunc("livesec_fn", "fn", func() float64 { return 2 })
	if got := r.Text(); !strings.Contains(got, "livesec_fn 2") {
		t.Fatalf("re-registered func not in effect: %q", got)
	}
}
