package main

import (
	"fmt"
	"math/rand"
	"time"

	"livesec/internal/netpkt"
	"livesec/internal/openflow"
	"livesec/internal/policy"
)

// workload is one named set of inputs.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workload{
	{"wire_miss", "livesecd over loopback TCP, every flow a new selector: the wire transport, the event-loop hop and core's cold setup path"},
	{"wire_hit", "livesecd over loopback TCP, 64 repeating selectors: decision-cache hits and plan replays, so transport and event loop weigh most"},
	{"sim_bulk", "simulated FIT campus, 50 long-lived chained flows of MTU segments: sim engine, link, dataplane, service inspection and host per packet"},
	{"sim_churn", "simulated FIT campus, 20,000 one-packet flows a second against 20,001 policy rules: core, policy, loadbalance, sim transport, monitor per setup"},
}

// outcome is what one workload run reports to the parent process.
type outcome struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Why         string             `json:"why,omitempty"` // first failure
	EndToEnd    map[string]float64 `json:"end_to_end"`
	PerLayer    map[string]float64 `json:"per_layer,omitempty"`
	Fingerprint string             `json:"fingerprint,omitempty"`
	Notes       []string           `json:"notes,omitempty"`
	SpanFile    string             `json:"span_file,omitempty"`
}

// runWorkload executes one workload at full size.
func runWorkload(name, livesecd string, seed int64, seconds int, trace bool, outDir string) (*outcome, error) {
	switch name {
	case "wire_miss", "wire_hit":
		return wireWorkload(name, livesecd, seed, seconds, trace, outDir, fullWire)
	case "sim_bulk":
		return simWorkload(name, seed, seconds, trace, outDir, fullBulk)
	case "sim_churn":
		return simWorkload(name, seed, seconds, trace, outDir, fullChurn)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func wireWorkload(name, livesecd string, seed int64, seconds int, trace bool, outDir string, size wireSize) (*outcome, error) {
	miss := name == "wire_miss"
	if trace {
		size.setups = 1 // set-up time is an end-to-end metric; the traced run reports none
	}
	res, err := runWire(livesecd, seed, miss, size, seconds)
	if err != nil {
		return nil, err
	}
	out := &outcome{Workload: name, Seed: seed, Attempted: res.attempted, Failed: res.failed + res.unexpected, Why: res.firstErr}
	out.Correct = out.Failed == 0 && res.openSetups > 0 && res.closedSetups > 0
	out.EndToEnd = map[string]float64{
		"setup_s":     median(res.setupS),
		"ops_per_s":   res.setupsPerS,
		"peak_rss_mb": res.peakRSSMB,
	}
	if res.minWindowN < 100*size.openRate/1000 {
		out.Notes = append(out.Notes, fmt.Sprintf("a latency window holds only %d samples", res.minWindowN))
	}
	if res.lateP99US > 1000 {
		out.Notes = append(out.Notes, fmt.Sprintf("unresolved: the generator itself ran %.0f us late at p99; latency figures include its lateness", res.lateP99US))
	}
	if !trace {
		return out, nil
	}

	hosts := [2][]wireHost{wireHosts(0, size.hosts), wireHosts(1, size.hosts)}
	gen := newWireGen(seed, miss, hosts)
	n := 0
	in := replayInputs{
		seed: seed,
		topo: wireTopo(size.hosts),
		// livesecd has no way to load a policy: its table is empty.
		policy: func() (*policy.Table, error) { return policy.NewTable(policy.Allow), nil },
		setups: func(k int) []replaySetup {
			ss := make([]replaySetup, k)
			for i := range ss {
				s := gen.draw(n % 2)
				n++
				ss[i] = replaySetup{dpid: uint64(101 + s.sw), pi: s.packetIn()}
			}
			return ss
		},
		payloads:  append([][]byte{wirePayload}, payloadMix(rand.New(rand.NewSource(seed)))...),
		heapDepth: 1,
		calls:     size.replay,
	}
	tr := newTracer()
	L, err := measureLayers(in, tr)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	setups := float64(res.attempted)
	L["setup_p50_us"] = res.p50
	L["setup_p99_us"] = res.p99
	L["livesecd.cpu_us_per_setup"] = res.cpuUSPerSet
	L["livesecd.flowmods_per_setup"] = res.fmsPerSetup
	L["wire.handshake_ms"] = res.handshakeMS
	L["wire.backlog_max"] = float64(res.backlogMax)
	L["wire.setup_p999_us"] = res.p999
	L["loadgen.late_p99_us"] = res.lateP99US
	L["loadgen.cpu_us_per_setup"] = res.genUSPerSet
	L["core.setups"] = setups
	L["core.packet_ins"] = setups + float64(res.otherPacketIns)
	L["monitor.events"] = L["monitor.events_per_setup"] * setups
	// The warm-up fills the daemon's store, so every event of the timed
	// phases is recorded at capacity.
	L["monitor.events_past_capacity"] = L["monitor.events_per_setup"] * float64(res.openSetups+res.closedSetups)
	L["core.self_ns"] = coreSelf(L)
	L["livesecd.residual_us"] = res.p50 - L["openflow.netconn_rtt_us"] -
		(L["openflow.decode_ns"]+L["core.setup_ns"]+L["openflow.encode_ns"])/1e3
	// The budget: each layer's cost of one setup over the daemon's CPU
	// time for one setup. The event loop, its per-message channel, the
	// socket calls and the per-event printing are nobody's share.
	perSetupNS := map[string]float64{
		"openflow": L["openflow.decode_ns"] + L["openflow.encode_ns"],
		"netpkt":   L["netpkt.unmarshal_ns"],
		"core":     L["core.self_ns"],
		"policy":   (1 - L["core.decision_hit_ratio"]) * L["policy.lookup_ns"],
		"monitor":  L["monitor.events_per_setup"] * L["monitor.record_ns"],
	}
	budget(L, perSetupNS, res.cpuUSPerSet*1e3)
	return finishTrace(out, L, tr, outDir)
}

// coreSelf is core's own time per setup: its span minus the callees the
// traced run replayed beside it.
func coreSelf(L map[string]float64) float64 {
	return max(L["core.setup_ns"]-L["netpkt.unmarshal_ns"]-
		(1-L["core.decision_hit_ratio"])*L["policy.lookup_ns"]-
		L["monitor.events_per_setup"]*L["monitor.record_cold_ns"], 0)
}

// budget writes share.<layer> = cost ÷ total for every layer and
// share.unattributed = 1 − Σ, so the rows always sum to 1. A negative
// unattributed share means the replayed unit costs overestimate what
// the program paid; it is reported as measured.
func budget(L, cost map[string]float64, total float64) {
	sum := 0.0
	for _, layer := range shareLayers {
		share := 0.0
		if total > 0 {
			share = cost[layer] / total
		}
		L["share."+layer] = share
		sum += share
	}
	L["share.unattributed"] = 1 - sum
}

// finishTrace fills the per-layer metrics a workload does not produce
// with zero (the layer did nothing), writes the spans, and attaches both.
func finishTrace(out *outcome, L map[string]float64, tr *tracer, outDir string) (*outcome, error) {
	out.PerLayer = make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		out.PerLayer[d.Name] = L[d.Name]
	}
	out.SpanFile = fmt.Sprintf("%s/%s-seed%d.spans.json", outDir, out.Workload, out.Seed)
	if err := tr.write(out.SpanFile); err != nil {
		return nil, err
	}
	return out, nil
}

func simWorkload(name string, seed int64, seconds int, trace bool, outDir string, size simSize) (*outcome, error) {
	if trace {
		size.setups = 1
	}
	res, err := runSim(seed, size, seconds)
	if err != nil {
		return nil, err
	}
	out := &outcome{Workload: name, Seed: seed, Attempted: res.attempted, Failed: res.failed, Why: res.firstErr,
		Fingerprint: fmt.Sprintf("%016x", res.fingerprint)}
	out.Correct = res.failed == 0 && res.ops > 0
	out.EndToEnd = map[string]float64{
		"setup_s":     median(res.setupS),
		"ops_per_s":   res.opsPerS,
		"peak_rss_mb": res.peakRSSMB,
	}
	if !trace {
		return out, nil
	}

	topo, users, gateway := fitTopo(size.fit)
	mix := payloadMix(rand.New(rand.NewSource(seed)))
	dpidOf := make(map[netpkt.MAC]uint64)
	for _, sw := range topo {
		for _, h := range sw.hosts {
			dpidOf[h.mac] = sw.dpid
		}
	}
	n := 0
	in := replayInputs{
		seed: seed,
		topo: topo,
		policy: func() (*policy.Table, error) {
			return policyFor(size)
		},
		// The first packets the campus offers: churn's alternate chained
		// and direct flows; bulk offers chained flows only.
		setups: func(k int) []replaySetup {
			ss := make([]replaySetup, k)
			for i := range ss {
				u, flowNo := users[n%len(users)], n/len(users)
				dport := uint16(80)
				if size.churn && flowNo%2 == 0 {
					dport = uint16(directPort0 + (n/2)%directPorts)
				}
				pkt := netpkt.NewTCP(u.mac, gateway.mac, u.ip, gateway.ip, uint16(churnPortBase+flowNo%20000), dport, mix[n%len(mix)])
				ss[i] = replaySetup{dpid: dpidOf[u.mac], pi: &openflow.PacketIn{BufferID: uint32(n + 1), InPort: u.port,
					Reason: openflow.ReasonNoMatch, Data: pkt.Marshal()}}
				n++
			}
			return ss
		},
		payloads:  mix,
		tableMax:  res.after.tableMax,
		heapDepth: res.after.heapMax,
		calls:     size.replay,
	}
	tr := newTracer()
	L, err := measureLayers(in, tr)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	b, a := res.before, res.after
	d := func(x, y uint64) float64 { return float64(y - x) }
	setups := d(b.ctrl.FlowsRouted+b.ctrl.FlowsChained, a.ctrl.FlowsRouted+a.ctrl.FlowsChained)
	chained := d(b.ctrl.FlowsChained, a.ctrl.FlowsChained)
	packetIns := d(b.ctrl.PacketIns, a.ctrl.PacketIns)
	decMiss := d(b.ctrl.DecisionCacheMisses, a.ctrl.DecisionCacheMisses)
	ofMsgs := packetIns + d(b.ctrl.FlowModsSent, a.ctrl.FlowModsSent) + d(b.ctrl.PacketOuts, a.ctrl.PacketOuts)
	events, simEvents := d(b.events, a.events), d(b.simEvents, a.simEvents)
	dpPkts, dpMisses := d(b.dpPkts, a.dpPkts), d(b.dpMisses, a.dpMisses)
	idsPkts, l7Pkts := d(b.idsPkts, a.idsPkts), d(b.l7Pkts, a.l7Pkts)
	heartbeats := float64(len(topoElems(topo))) * float64((a.now-b.now)/(500*time.Millisecond))
	seMsgs := d(b.ctrl.SEEvents, a.ctrl.SEEvents) + heartbeats

	// Counts and ratios are the timed window's own, read from public
	// counters before and after it; only the unit costs are replayed.
	L["sim_wall_s"] = res.wallS
	L["model_goodput_mbps"] = res.goodputMbps
	L["model_setup_p99_us"] = res.modelP99US
	L["core.setups"] = setups
	L["core.packet_ins"] = packetIns
	L["core.decision_hit_ratio"] = hitRatio(a.ctrl.DecisionCacheHits-b.ctrl.DecisionCacheHits, a.ctrl.DecisionCacheMisses-b.ctrl.DecisionCacheMisses)
	L["core.plan_hit_ratio"] = hitRatio(a.ctrl.PlanCacheHits-b.ctrl.PlanCacheHits, a.ctrl.PlanCacheMisses-b.ctrl.PlanCacheMisses)
	L["policy.rules"] = float64(res.policyRules)
	L["monitor.events"] = events
	past := float64(max(a.events, storeCap) - max(b.events, storeCap))
	L["monitor.events_past_capacity"] = past
	if setups > 0 {
		L["monitor.events_per_setup"] = events / setups
	}
	L["core.self_ns"] = coreSelf(L)
	L["sim.events"] = simEvents
	L["sim.events_per_s"] = simEvents / res.wallS
	L["sim.heap_max_depth"] = float64(a.heapMax)
	L["link.pkts"] = d(b.linkPkts, a.linkPkts)
	L["dataplane.pkts"] = dpPkts
	L["dataplane.microflow_hit_ratio"] = hitRatio(a.microHits-b.microHits, a.microMiss-b.microMiss)
	L["dataplane.table_entries_max"] = float64(a.tableMax)
	L["service.pkts"] = idsPkts + l7Pkts
	L["host.pkts"] = d(b.hostPkts, a.hostPkts)
	L["seproto.msgs"] = seMsgs
	cost := map[string]float64{
		"openflow":    ofMsgs * L["openflow.simpipe_ns_per_msg"],
		"netpkt":      packetIns * L["netpkt.unmarshal_ns"],
		"core":        setups * L["core.self_ns"],
		"policy":      decMiss * L["policy.lookup_ns"],
		"loadbalance": chained * 2 * L["loadbalance.pick_ns"], // an L7 and an IDS pick per chained flow
		"monitor":     (events-past)*L["monitor.record_cold_ns"] + past*L["monitor.record_ns"],
		"sim":         simEvents * L["sim.ns_per_event"],
		"link":        L["link.pkts"] * L["link.ns_per_pkt"],
		"dataplane":   (dpPkts-dpMisses)*L["dataplane.ns_per_pkt_hit"] + dpMisses*L["dataplane.ns_per_pkt_miss"],
		"service":     idsPkts*L["ids.inspect_ns"] + l7Pkts*L["l7.classify_ns"],
		"host":        L["host.pkts"] * L["host.ns_per_pkt"],
		"seproto":     seMsgs * L["seproto.codec_ns"],
	}
	budget(L, cost, res.wallS*1e9)
	return finishTrace(out, L, tr, outDir)
}

func topoElems(topo []topoSwitch) []topoElem {
	var es []topoElem
	for _, sw := range topo {
		es = append(es, sw.elems...)
	}
	return es
}
