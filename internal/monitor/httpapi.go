package monitor

import (
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"livesec/internal/obs"
	"livesec/internal/slots"
)

// TopologyFunc supplies the current logical topology for /topology; the
// controller provides it. It must be safe to call from HTTP goroutines
// (or be serialized by HandlerConfig.Sync).
type TopologyFunc func() any

// HandlerConfig configures the monitoring HTTP API.
type HandlerConfig struct {
	// Store is the event store backing /events, /replay, /stats, /apps.
	// Required.
	Store *Store
	// Topology backs /topology; nil serves an empty object.
	Topology TopologyFunc
	// Obs exposes the observability subsystem on /metrics and /traces;
	// nil serves store-level metrics only and empty traces.
	Obs *obs.FlowObs
	// Alerts exposes the SLO alert engine on /alerts and folds its firing
	// summary into /health; nil serves an empty alert set.
	Alerts *obs.AlertEngine
	// Health supplies per-component health for /health; nil reports no
	// components (the rollup then reflects alerts alone).
	Health func() []HealthComponent
	// Sync serializes a snapshot with the goroutine owning Obs and the
	// Topology state (the simulation event loop): the handler calls
	// Sync(fn) and fn must run while that owner is quiescent. Nil calls
	// fn directly — correct when no event loop runs concurrently (tests,
	// post-run exports). The Store needs no Sync; it locks internally.
	Sync func(func())
}

// HealthComponent is one subsystem's health in the GET /health rollup.
type HealthComponent struct {
	Name   string `json:"name"`
	Status string `json:"status"` // "ok", "degraded", or "down"
	Detail string `json:"detail,omitempty"`
}

// HealthResponse is the JSON shape of GET /health. Status is the worst
// component status, bumped to at least "degraded" while any alert fires;
// "down" is served with HTTP 503 so load-balancer checks need no body
// parsing.
type HealthResponse struct {
	Status           string            `json:"status"`
	Components       []HealthComponent `json:"components"`
	AlertsFiring     int               `json:"alerts_firing"`
	AlertsBySeverity map[string]int    `json:"alerts_by_severity,omitempty"`
}

// AlertsResponse is the JSON shape of GET /alerts.
type AlertsResponse struct {
	Firing      int                   `json:"firing"`
	Alerts      []obs.AlertView       `json:"alerts"`
	Transitions []obs.AlertTransition `json:"transitions"`
}

// healthRank orders health statuses worst-last for the rollup.
func healthRank(status string) int {
	switch status {
	case "down":
		return 2
	case "degraded":
		return 1
	}
	return 0
}

// TracesResponse is the JSON shape of GET /traces.
type TracesResponse struct {
	Recorded        uint64         `json:"recorded"`
	CompletedSetups uint64         `json:"completed_setups"`
	Spans           []obs.SpanView `json:"spans"`
}

// NewAPIHandler builds the WebUI's HTTP JSON API plus the embedded
// dashboard page:
//
//	GET /                                   — live HTML dashboard (webpage.go)
//	GET /events?type=&since=&user=&limit=   — filtered event log
//	GET /replay?from_ms=&to_ms=             — history window
//	GET /stats                              — per-type counters
//	GET /apps                               — per-user application usage
//	GET /topology                           — logical topology snapshot
//	GET /metrics                            — Prometheus text exposition v0.0.4
//	GET /traces?limit=&slowest=&span=       — recent setup spans, or the one with ID span
//	GET /health                             — component rollup (503 when down)
//	GET /alerts                             — SLO alert states and transition log
//
// Malformed query parameters (non-numeric, negative, overflowing) are
// uniformly rejected with status 400 and body "bad <param>".
func NewAPIHandler(cfg HandlerConfig) http.Handler {
	store, sync := cfg.Store, cfg.Sync
	if sync == nil {
		sync = func(fn func()) { fn() }
	}
	mux := http.NewServeMux()
	writeJSON := func(w http.ResponseWriter, v any) {
		buf, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			http.Error(w, "encode: "+err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(buf, '\n'))
	}
	mux.HandleFunc("GET /events", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		f := Filter{
			Type: EventType(q.Get("type")),
			User: q.Get("user"),
		}
		since, ok := queryUint(w, q.Get("since"), "since", math.MaxUint64)
		if !ok {
			return
		}
		f.Since = since
		limit, ok := queryUint(w, q.Get("limit"), "limit", math.MaxInt)
		if !ok {
			return
		}
		f.Limit = int(limit)
		events := store.Events(f)
		if events == nil {
			events = []Event{}
		}
		writeJSON(w, events)
	})
	mux.HandleFunc("GET /replay", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		// Bound the window so the millisecond conversion cannot overflow.
		const maxMS = uint64(math.MaxInt64 / time.Millisecond)
		fromMS, ok := queryUint(w, q.Get("from_ms"), "from_ms", maxMS)
		if !ok {
			return
		}
		toMS, ok := queryUint(w, q.Get("to_ms"), "to_ms", maxMS)
		if !ok {
			return
		}
		from := time.Duration(fromMS) * time.Millisecond
		// to 0 (absent or explicit) keeps the window open-ended, matching
		// Filter semantics.
		to := time.Duration(toMS) * time.Millisecond
		out := []Event{}
		store.Replay(from, to, func(ev Event) bool {
			out = append(out, ev)
			return true
		})
		writeJSON(w, out)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, store.Counts())
	})
	mux.HandleFunc("GET /apps", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, store.UserApps())
	})
	mux.HandleFunc("GET /topology", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Topology == nil {
			writeJSON(w, map[string]any{})
			return
		}
		var v any
		sync(func() { v = cfg.Topology() })
		writeJSON(w, v)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		// Store-level families render first from a transient registry
		// (the store locks internally); the obs registry snapshot is
		// serialized with its owning loop.
		text := storeMetrics(store)
		if cfg.Obs != nil {
			sync(func() { text += cfg.Obs.Registry.Text() })
			text += processMetrics()
		}
		w.Header().Set("Content-Type", obs.ContentType)
		w.Write([]byte(text))
	})
	mux.HandleFunc("GET /traces", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		limit, ok := queryUint(w, q.Get("limit"), "limit", math.MaxInt)
		if !ok {
			return
		}
		var slowest bool
		switch q.Get("slowest") {
		case "", "0", "false":
		case "1", "true":
			slowest = true
		default:
			http.Error(w, "bad slowest", http.StatusBadRequest)
			return
		}
		id, ok := queryUint(w, q.Get("span"), "span", math.MaxUint64)
		if !ok {
			return
		}
		resp := TracesResponse{Spans: []obs.SpanView{}}
		if cfg.Obs != nil {
			sync(func() {
				resp.Recorded = cfg.Obs.Recorded()
				resp.CompletedSetups = cfg.Obs.CompletedSetups()
				if id != 0 {
					if sp, ok := cfg.Obs.Span(id); ok {
						resp.Spans = append(resp.Spans, sp.View())
					}
				} else {
					for _, sp := range cfg.Obs.Spans(int(limit), slowest) {
						resp.Spans = append(resp.Spans, sp.View())
					}
				}
			})
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("GET /health", func(w http.ResponseWriter, r *http.Request) {
		resp := HealthResponse{Status: "ok", Components: []HealthComponent{}}
		sync(func() {
			if cfg.Health != nil {
				resp.Components = append(resp.Components, cfg.Health()...)
			}
			if cfg.Alerts != nil {
				resp.AlertsFiring = cfg.Alerts.Firing()
				if resp.AlertsFiring > 0 {
					resp.AlertsBySeverity = cfg.Alerts.FiringBySeverity()
				}
			}
		})
		worst := 0
		for _, comp := range resp.Components {
			worst = max(worst, healthRank(comp.Status))
		}
		if resp.AlertsFiring > 0 && worst < 1 {
			worst = 1
		}
		resp.Status = [...]string{"ok", "degraded", "down"}[worst]
		if worst == 2 {
			w.Header().Set("Content-Type", "application/json") // headers go out with the status
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("GET /alerts", func(w http.ResponseWriter, r *http.Request) {
		resp := AlertsResponse{Alerts: []obs.AlertView{}, Transitions: []obs.AlertTransition{}}
		if cfg.Alerts != nil {
			sync(func() {
				resp.Firing = cfg.Alerts.Firing()
				resp.Alerts = append(resp.Alerts, cfg.Alerts.Snapshot()...)
				resp.Transitions = append(resp.Transitions, cfg.Alerts.Transitions()...)
			})
		}
		writeJSON(w, resp)
	})
	registerIndex(mux)
	return mux
}

// queryUint parses an optional non-negative integer query parameter.
// Empty means 0. Any malformed, negative, or out-of-range value writes
// the uniform "bad <param>" 400 response and returns ok=false.
func queryUint(w http.ResponseWriter, v, name string, max uint64) (uint64, bool) {
	if v == "" {
		return 0, true
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil || n > max {
		http.Error(w, "bad "+name, http.StatusBadRequest)
		return 0, false
	}
	return n, true
}

// storeMetrics renders the event store's counters as Prometheus text:
// per-type recorded events plus ring occupancy.
func storeMetrics(s *Store) string {
	r := obs.NewRegistry()
	counts := s.Counts()
	types := make([]EventType, 0, len(counts))
	for t := range counts {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	for _, t := range types {
		r.Counter("livesec_events_total", "Monitoring events recorded, by type.",
			obs.L("type", sanitizeLabel(string(t)))).Add(counts[t])
	}
	r.Counter("livesec_events_recorded_total",
		"Monitoring events ever recorded (ring may have evicted some).").Add(s.TotalRecorded())
	r.Gauge("livesec_events_retained", "Events currently held in the ring.").
		Set(float64(s.Len()))
	return r.Text()
}

// processMetrics renders what the process holds outside any one
// registry: the store slabs mapped outside the Go heap (slots.Slabs).
func processMetrics() string {
	r := obs.NewRegistry()
	r.Gauge("livesec_mapped_bytes",
		"Bytes of store slabs the process maps outside the Go heap, which Go's memory statistics do not count.").
		Set(float64(slots.MappedBytes()))
	return r.Text()
}

// sanitizeLabel keeps label values printable single-line strings.
func sanitizeLabel(s string) string {
	return strings.Map(func(r rune) rune {
		if r < ' ' || r > '~' {
			return '_'
		}
		return r
	}, s)
}
