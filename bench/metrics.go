package main

import (
	"fmt"
	"regexp"
)

// metricDef names one metric. Bound is the share of the parent's median
// an end-to-end metric may worsen by before a change is a regression;
// per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them; README.md says what each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// shareLayers are the layers the cost budget is split over, in the
// order the budget is printed.
var shareLayers = []string{"openflow", "netpkt", "core", "policy", "loadbalance", "monitor",
	"sim", "link", "dataplane", "service", "host", "seproto"}

// perLayer lists the single-layer diagnostics of the traced run.
var perLayer = func() []metricDef {
	l := func(name, unit, better string) metricDef { return metricDef{Name: name, Unit: unit, Better: better} }
	ms := []metricDef{
		// The operator's latency figures. They are end-to-end quantities,
		// but on the reference box they do not repeat within any bound the
		// contract allows; README.md has the measurements.
		l("setup_p50_us", "us", "lower"),
		l("setup_p99_us", "us", "lower"),
		l("livesecd.cpu_us_per_setup", "us", "lower"),
		l("livesecd.flowmods_per_setup", "count", "lower"),
		l("livesecd.residual_us", "us", "lower"),
		l("wire.handshake_ms", "ms", "lower"),
		l("wire.backlog_max", "count", "lower"),
		l("wire.setup_p999_us", "us", "lower"),
		l("loadgen.late_p99_us", "us", "lower"),
		l("loadgen.cpu_us_per_setup", "us", "lower"),
		l("openflow.decode_ns", "ns", "lower"),
		l("openflow.encode_ns", "ns", "lower"),
		l("openflow.netconn_rtt_us", "us", "lower"),
		l("openflow.simpipe_ns_per_msg", "ns", "lower"),
		l("netpkt.unmarshal_ns", "ns", "lower"),
		l("core.setup_ns", "ns", "lower"),
		l("core.setup_chain_ns", "ns", "lower"),
		l("core.setup_direct_ns", "ns", "lower"),
		l("core.setup_allocs", "count", "lower"),
		l("core.self_ns", "ns", "lower"),
		l("core.decision_hit_ratio", "ratio", "higher"),
		l("core.plan_hit_ratio", "ratio", "higher"),
		l("core.setups", "count", "higher"),
		l("core.packet_ins", "count", "lower"),
		l("policy.lookup_ns", "ns", "lower"),
		l("policy.rules", "count", "lower"),
		l("loadbalance.pick_ns", "ns", "lower"),
		l("monitor.record_ns", "ns", "lower"),
		l("monitor.record_cold_ns", "ns", "lower"),
		l("monitor.events_past_capacity", "count", "lower"),
		l("monitor.events", "count", "lower"),
		l("monitor.events_per_setup", "count", "lower"),
		l("obs.setup_overhead_ns", "ns", "lower"),
		l("sim.events", "count", "lower"),
		l("sim.events_per_s", "1/s", "higher"),
		l("sim.ns_per_event", "ns", "lower"),
		l("sim.heap_max_depth", "count", "lower"),
		l("link.pkts", "count", "lower"),
		l("link.ns_per_pkt", "ns", "lower"),
		l("dataplane.pkts", "count", "lower"),
		l("dataplane.ns_per_pkt_hit", "ns", "lower"),
		l("dataplane.ns_per_pkt_miss", "ns", "lower"),
		l("dataplane.microflow_hit_ratio", "ratio", "higher"),
		l("dataplane.table_entries_max", "count", "lower"),
		l("service.pkts", "count", "lower"),
		l("ids.inspect_ns", "ns", "lower"),
		l("l7.classify_ns", "ns", "lower"),
		l("host.pkts", "count", "lower"),
		l("host.ns_per_pkt", "ns", "lower"),
		l("seproto.msgs", "count", "lower"),
		l("seproto.codec_ns", "ns", "lower"),
	}
	for _, layer := range shareLayers {
		ms = append(ms, l("share."+layer, "share", "lower"))
	}
	return append(ms,
		l("share.unattributed", "share", "lower"),
		// End-to-end quantities that cannot be end-to-end metrics of this
		// benchmark; README.md says why.
		l("sim_wall_s", "s", "lower"),
		l("model_goodput_mbps", "Mbit/s", "higher"),
		l("model_setup_p99_us", "us", "lower"),
	)
}()

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// Limits the benchmark contract puts on the metric lists.
const (
	maxEndToEnd = 16
	maxPerLayer = 128
	maxBound    = 0.25
)

// validateMetrics checks the two lists against the contract: name and
// unit alphabets, list sizes, directions, bounds, unique names, and the
// set-up time metric every benchmark must carry.
func validateMetrics(e2e, layer []metricDef) error {
	if len(e2e) < 1 || len(e2e) > maxEndToEnd {
		return fmt.Errorf("%d end-to-end metrics, want 1 to %d", len(e2e), maxEndToEnd)
	}
	if len(layer) < 1 || len(layer) > maxPerLayer {
		return fmt.Errorf("%d per-layer metrics, want 1 to %d", len(layer), maxPerLayer)
	}
	seen := make(map[string]bool)
	hasSetup := false
	for i, m := range append(append([]metricDef(nil), e2e...), layer...) {
		switch {
		case !nameRE.MatchString(m.Name):
			return fmt.Errorf("metric name %q: want a letter or digit, then up to 63 of letters, digits, '_', '.', '-'", m.Name)
		case !unitRE.MatchString(m.Unit):
			return fmt.Errorf("metric %s: unit %q: want 1 to 16 of letters, digits, '_', '/', '%%', '.', '-'", m.Name, m.Unit)
		case m.Better != "lower" && m.Better != "higher":
			return fmt.Errorf("metric %s: better is %q, want lower or higher", m.Name, m.Better)
		case seen[m.Name]:
			return fmt.Errorf("metric %s is listed twice", m.Name)
		case i < len(e2e) && (m.Bound <= 0 || m.Bound > maxBound):
			return fmt.Errorf("metric %s: bound %v, want above 0 and at most %v", m.Name, m.Bound, maxBound)
		case i >= len(e2e) && m.Bound != 0:
			return fmt.Errorf("per-layer metric %s has a bound", m.Name)
		}
		seen[m.Name] = true
		if i < len(e2e) && m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		return fmt.Errorf("no end-to-end metric setup_s in s, lower is better")
	}
	return nil
}
