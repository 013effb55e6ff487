package monitor

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"livesec/internal/obs"
)

// apiStore seeds a small deterministic event history.
func apiStore() *Store {
	s := NewStore(0)
	s.Record(Event{Type: EventFlowStart, User: "u1", At: 1 * time.Millisecond})
	s.Record(Event{Type: EventFlowStart, User: "u2", At: 2 * time.Millisecond})
	s.Record(Event{Type: EventAttack, User: "u1", Detail: "SQLi", At: 5 * time.Millisecond})
	s.Record(Event{Type: EventProtocol, User: "u2", Detail: "http", At: 9 * time.Millisecond})
	return s
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestHandlerEndpoints(t *testing.T) {
	fo := obs.NewFlowObs(8)
	sp := fo.StartSpan(2 * time.Millisecond)
	sp.Switch = 1
	sp.SetStage(obs.StageQueueWait, time.Millisecond)
	sp.MarkDecision(true)
	fo.FinishSpan(sp, 4*time.Millisecond)
	sp = fo.StartSpan(5 * time.Millisecond)
	sp.Switch = 2
	sp.SetOutcome(obs.OutcomeShed)
	fo.FinishSpan(sp, 5*time.Millisecond)

	srv := httptest.NewServer(NewAPIHandler(HandlerConfig{
		Store:    apiStore(),
		Topology: func() any { return map[string]int{"switches": 2} },
		Obs:      fo,
	}))
	defer srv.Close()

	type check func(t *testing.T, body string)
	jsonLen := func(want int) check {
		return func(t *testing.T, body string) {
			var events []Event
			if err := json.Unmarshal([]byte(body), &events); err != nil {
				t.Fatalf("decode: %v\n%s", err, body)
			}
			if len(events) != want {
				t.Fatalf("got %d events, want %d:\n%s", len(events), want, body)
			}
		}
	}
	cases := []struct {
		name       string
		path       string
		wantStatus int
		check      check
	}{
		{"events all", "/events", 200, jsonLen(4)},
		{"events by type", "/events?type=flow-start", 200, jsonLen(2)},
		{"events by user", "/events?user=u1", 200, jsonLen(2)},
		{"events since", "/events?since=3", 200, jsonLen(1)},
		{"events limit", "/events?limit=2", 200, jsonLen(2)},
		{"events empty result is array", "/events?type=nosuch", 200,
			func(t *testing.T, body string) {
				if strings.TrimSpace(body) != "[]" {
					t.Fatalf("want empty array, got %q", body)
				}
			}},
		{"replay full", "/replay?from_ms=0&to_ms=100", 200, jsonLen(4)},
		{"replay window", "/replay?from_ms=2&to_ms=5", 200, jsonLen(2)},
		{"replay open-ended", "/replay?from_ms=5", 200, jsonLen(2)},
		{"stats", "/stats", 200, func(t *testing.T, body string) {
			var counts map[string]uint64
			if err := json.Unmarshal([]byte(body), &counts); err != nil {
				t.Fatal(err)
			}
			if counts["flow-start"] != 2 || counts["attack"] != 1 {
				t.Fatalf("counts = %v", counts)
			}
		}},
		{"traces newest first", "/traces", 200, func(t *testing.T, body string) {
			var tr TracesResponse
			if err := json.Unmarshal([]byte(body), &tr); err != nil {
				t.Fatal(err)
			}
			if tr.Recorded != 2 || tr.CompletedSetups != 1 || len(tr.Spans) != 2 {
				t.Fatalf("traces = %+v", tr)
			}
			if tr.Spans[0].ID != 2 || tr.Spans[0].Outcome != "shed" {
				t.Fatalf("first span = %+v", tr.Spans[0])
			}
		}},
		{"traces slowest", "/traces?limit=1&slowest=1", 200, func(t *testing.T, body string) {
			var tr TracesResponse
			if err := json.Unmarshal([]byte(body), &tr); err != nil {
				t.Fatal(err)
			}
			if len(tr.Spans) != 1 || tr.Spans[0].ID != 1 || tr.Spans[0].TotalMS != 2 {
				t.Fatalf("slowest = %+v", tr.Spans)
			}
		}},

		// Uniform bad-parameter shape: 400 with body "bad <param>".
		{"bad since text", "/events?since=abc", 400, nil},
		{"bad since negative", "/events?since=-1", 400, nil},
		{"bad limit negative", "/events?limit=-5", 400, nil},
		{"bad limit overflow", "/events?limit=99999999999999999999", 400, nil},
		{"bad from_ms", "/replay?from_ms=x", 400, nil},
		{"bad from_ms negative", "/replay?from_ms=-2", 400, nil},
		{"bad to_ms overflow", "/replay?to_ms=18446744073709551615", 400, nil},
		{"bad traces limit", "/traces?limit=no", 400, nil},
		{"bad traces slowest", "/traces?slowest=maybe", 400, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := get(t, srv, tc.path)
			if status != tc.wantStatus {
				t.Fatalf("%s: status %d, want %d (%s)", tc.path, status, tc.wantStatus, body)
			}
			if tc.wantStatus == http.StatusBadRequest {
				// The normalized shape: "bad <param>\n".
				if !strings.HasPrefix(body, "bad ") {
					t.Fatalf("%s: error body %q, want `bad <param>`", tc.path, body)
				}
				return
			}
			if tc.check != nil {
				tc.check(t, body)
			}
		})
	}
}

// Golden exposition for a handler without obs: exactly the store-level
// families.
func TestMetricsGoldenWithoutObs(t *testing.T) {
	srv := httptest.NewServer(NewAPIHandler(HandlerConfig{Store: apiStore()}))
	defer srv.Close()
	status, body := get(t, srv, "/metrics")
	if status != 200 {
		t.Fatalf("status %d", status)
	}
	want := strings.Join([]string{
		"# HELP livesec_events_recorded_total Monitoring events ever recorded (ring may have evicted some).",
		"# TYPE livesec_events_recorded_total counter",
		"livesec_events_recorded_total 4",
		"# HELP livesec_events_retained Events currently held in the ring.",
		"# TYPE livesec_events_retained gauge",
		"livesec_events_retained 4",
		"# HELP livesec_events_total Monitoring events recorded, by type.",
		"# TYPE livesec_events_total counter",
		`livesec_events_total{type="attack"} 1`,
		`livesec_events_total{type="flow-start"} 2`,
		`livesec_events_total{type="protocol-identified"} 1`,
		"",
	}, "\n")
	if body != want {
		t.Fatalf("metrics mismatch:\n--- got ---\n%s\n--- want ---\n%s", body, want)
	}
	if err := obs.LintText(body); err != nil {
		t.Fatalf("exposition fails lint: %v", err)
	}
}

func TestMetricsWithObsLints(t *testing.T) {
	fo := obs.NewFlowObs(8)
	fo.Registry.Counter("livesec_custom_total", "Custom.").Add(3)
	sp := fo.StartSpan(0)
	fo.FinishSpan(sp, time.Millisecond)
	var synced bool
	srv := httptest.NewServer(NewAPIHandler(HandlerConfig{
		Store: apiStore(),
		Obs:   fo,
		Sync:  func(fn func()) { synced = true; fn() },
	}))
	defer srv.Close()
	status, body := get(t, srv, "/metrics")
	if status != 200 {
		t.Fatalf("status %d", status)
	}
	if !synced {
		t.Fatal("obs snapshot was not serialized through Sync")
	}
	if err := obs.LintText(body); err != nil {
		t.Fatalf("exposition fails lint: %v\n%s", err, body)
	}
	for _, want := range []string{
		"livesec_custom_total 3",
		"livesec_events_total",
		`livesec_flow_setup_stage_seconds_bucket{stage="queue_wait",le="+Inf"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestEncodeErrorReports500(t *testing.T) {
	// A topology snapshot that cannot marshal (channels are unsupported)
	// must surface as a 500, not be silently dropped.
	srv := httptest.NewServer(NewAPIHandler(HandlerConfig{
		Store:    NewStore(0),
		Topology: func() any { return map[string]any{"bad": make(chan int)} },
	}))
	defer srv.Close()
	status, body := get(t, srv, "/topology")
	if status != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (%s)", status, body)
	}
	if !strings.HasPrefix(body, "encode: ") {
		t.Fatalf("error body %q, want encode error", body)
	}
}

func TestTracesSlowestTieBreak(t *testing.T) {
	fo := obs.NewFlowObs(8)
	// Three spans with identical 3ms totals: slowest ordering must break
	// ties by ascending ID so the endpoint is deterministic.
	for i := 0; i < 3; i++ {
		sp := fo.StartSpan(time.Duration(i) * time.Millisecond)
		fo.FinishSpan(sp, time.Duration(i)*time.Millisecond+3*time.Millisecond)
	}
	srv := httptest.NewServer(NewAPIHandler(HandlerConfig{Store: NewStore(0), Obs: fo}))
	defer srv.Close()
	status, body := get(t, srv, "/traces?slowest=1")
	if status != 200 {
		t.Fatalf("status %d", status)
	}
	var tr TracesResponse
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Spans) != 3 {
		t.Fatalf("got %d spans", len(tr.Spans))
	}
	for i, want := range []uint64{1, 2, 3} {
		if tr.Spans[i].ID != want {
			t.Fatalf("slowest tie order: spans[%d].ID = %d, want %d", i, tr.Spans[i].ID, want)
		}
	}
}

func TestTracesByTraceID(t *testing.T) {
	fo := obs.NewFlowObs(16)
	// Trace 1: a setup with two children; trace 4: an unrelated setup.
	root := fo.StartSpan(0)
	// Capture before FinishSpan: the pool recycles the span object.
	tid := strconv.FormatUint(root.TraceID, 10)
	c1 := fo.StartChild(root, obs.KindFWInstall, time.Millisecond)
	c2 := fo.StartChild(root, obs.KindFWInstall, 2*time.Millisecond)
	fo.FinishSpan(c1, 3*time.Millisecond)
	fo.FinishSpan(c2, 3*time.Millisecond)
	fo.FinishSpan(root, 4*time.Millisecond)
	other := fo.StartSpan(5 * time.Millisecond)
	fo.FinishSpan(other, 6*time.Millisecond)

	srv := httptest.NewServer(NewAPIHandler(HandlerConfig{Store: NewStore(0), Obs: fo}))
	defer srv.Close()
	status, body := get(t, srv, "/traces?trace="+tid)
	if status != 200 {
		t.Fatalf("status %d", status)
	}
	var tr TracesResponse
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Spans) != 3 {
		t.Fatalf("trace returned %d spans, want 3:\n%s", len(tr.Spans), body)
	}
	if tr.Spans[0].Kind != "setup" || tr.Spans[0].ParentID != 0 {
		t.Fatalf("root = %+v", tr.Spans[0])
	}
	for _, sp := range tr.Spans[1:] {
		if sp.TraceID != tr.Spans[0].TraceID || sp.ParentID != tr.Spans[0].ID {
			t.Fatalf("child not linked to root: %+v", sp)
		}
	}
	if tr.Spans[1].Kind != "fw_install" || tr.Spans[2].Kind != "fw_install" {
		t.Fatalf("child kinds = %s, %s", tr.Spans[1].Kind, tr.Spans[2].Kind)
	}
}

func TestHealthEndpoint(t *testing.T) {
	comps := []HealthComponent{{Name: "switches", Status: "ok", Detail: "2/2 reachable"}}
	var mu struct{ status string }
	mu.status = "ok"
	fo := obs.NewFlowObs(8)
	var errs float64
	ae := obs.NewAlertEngine(fo, 10*time.Millisecond, []obs.AlertRule{{
		Name: "errs", Severity: "warning", Window: 50 * time.Millisecond, Limit: 0,
		Sample: func() (float64, float64) { return errs, 0 },
	}})
	srv := httptest.NewServer(NewAPIHandler(HandlerConfig{
		Store:  NewStore(0),
		Alerts: ae,
		Health: func() []HealthComponent {
			out := append([]HealthComponent{}, comps...)
			out[0].Status = mu.status
			return out
		},
	}))
	defer srv.Close()

	decode := func(body string) HealthResponse {
		var h HealthResponse
		if err := json.Unmarshal([]byte(body), &h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	ae.Tick(10 * time.Millisecond) // baseline sample
	status, body := get(t, srv, "/health")
	if h := decode(body); status != 200 || h.Status != "ok" || len(h.Components) != 1 || h.AlertsFiring != 0 {
		t.Fatalf("healthy: status=%d %+v", status, h)
	}
	// A firing alert bumps an otherwise-ok rollup to degraded. (The
	// first tick is the baseline sample; the second sees the delta.)
	errs = 1
	ae.Tick(20 * time.Millisecond)
	status, body = get(t, srv, "/health")
	if h := decode(body); status != 200 || h.Status != "degraded" || h.AlertsFiring != 1 ||
		h.AlertsBySeverity["warning"] != 1 {
		t.Fatalf("alert-degraded: status=%d %+v", status, h)
	}
	// A down component makes the rollup down and the status 503, so load
	// balancers can health-check without parsing the body.
	mu.status = "down"
	status, body = get(t, srv, "/health")
	if h := decode(body); status != http.StatusServiceUnavailable || h.Status != "down" {
		t.Fatalf("down: status=%d %+v", status, h)
	}
}

func TestHealthEndpointUnconfigured(t *testing.T) {
	srv := httptest.NewServer(NewAPIHandler(HandlerConfig{Store: NewStore(0)}))
	defer srv.Close()
	status, body := get(t, srv, "/health")
	if status != 200 {
		t.Fatalf("status %d", status)
	}
	var h HealthResponse
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || len(h.Components) != 0 || h.AlertsFiring != 0 {
		t.Fatalf("unconfigured health = %+v", h)
	}
}

func TestAlertsEndpoint(t *testing.T) {
	fo := obs.NewFlowObs(8)
	var errs float64
	ae := obs.NewAlertEngine(fo, 10*time.Millisecond, []obs.AlertRule{{
		Name: "errs", Severity: "critical", Window: 50 * time.Millisecond, Limit: 0,
		Summary: "test rule",
		Sample:  func() (float64, float64) { return errs, 0 },
	}})
	ae.Tick(5 * time.Millisecond) // baseline sample
	errs = 3
	ae.Tick(10 * time.Millisecond)
	srv := httptest.NewServer(NewAPIHandler(HandlerConfig{Store: NewStore(0), Alerts: ae}))
	defer srv.Close()
	status, body := get(t, srv, "/alerts")
	if status != 200 {
		t.Fatalf("status %d", status)
	}
	var ar AlertsResponse
	if err := json.Unmarshal([]byte(body), &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Firing != 1 || len(ar.Alerts) != 1 || len(ar.Transitions) != 1 {
		t.Fatalf("alerts = %+v", ar)
	}
	if ar.Alerts[0].Rule != "errs" || ar.Alerts[0].State != "firing" ||
		ar.Transitions[0].State != "firing" || ar.Transitions[0].AtMS != 10 {
		t.Fatalf("alert detail = %+v", ar)
	}

	// Without an engine the endpoint serves the empty shape, not an error.
	bare := httptest.NewServer(NewAPIHandler(HandlerConfig{Store: NewStore(0)}))
	defer bare.Close()
	status, body = get(t, bare, "/alerts")
	if err := json.Unmarshal([]byte(body), &ar); err != nil || status != 200 {
		t.Fatalf("bare alerts: status=%d err=%v", status, err)
	}
	if ar.Firing != 0 || len(ar.Alerts) != 0 || len(ar.Transitions) != 0 {
		t.Fatalf("bare alerts = %+v", ar)
	}
}
