// Benchmarks regenerating every evaluation result in the paper (§V.B).
// Each BenchmarkE* runs the corresponding experiment from
// internal/experiments and reports its headline numbers as custom
// benchmark metrics, so `go test -bench=. -benchmem` reprints the
// evaluation. Micro-benchmarks for the hot paths (codec, flow lookup,
// IDS engine, L7 classifier) follow.
package livesec_test

import (
	"testing"

	"livesec/internal/dataplane"
	"livesec/internal/experiments"
	"livesec/internal/flow"
	"livesec/internal/ids"
	"livesec/internal/l7"
	"livesec/internal/loadbalance"
	"livesec/internal/netpkt"
	"livesec/internal/openflow"
)

// scale picks experiment sizing: full-paper deployments under -bench
// (unless -short), CI sizing otherwise.
func scale(b *testing.B) experiments.Scale {
	if testing.Short() {
		return experiments.ScaleCI
	}
	return experiments.ScaleFull
}

func reportRows(b *testing.B, r experiments.Result) {
	b.Helper()
	for _, row := range r.Rows {
		b.ReportMetric(row.Value, sanitizeUnit(row.Name)+"_"+sanitizeUnit(row.Unit))
	}
	b.Log("\n" + r.String())
}

func sanitizeUnit(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		case r == ' ' || r == ':' || r == '(' || r == ')' || r == '×' || r == '%':
			out = append(out, '_')
		}
	}
	return string(out)
}

// BenchmarkE1AccessThroughput — §V.B.1: 100 Mbps wired / 43 Mbps Wi-Fi.
func BenchmarkE1AccessThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E1AccessThroughput()
		if i == b.N-1 {
			reportRows(b, r)
		}
	}
}

// BenchmarkE2ServiceElementScaling — §V.B.1: 421 → 827 Mbps → NIC cap.
func BenchmarkE2ServiceElementScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E2ServiceElementScaling(scale(b))
		if i == b.N-1 {
			reportRows(b, r)
		}
	}
}

// BenchmarkE3AggregateCapacity — §V.B.1: ≥8 Gbps IDS, ≥2 Gbps L7.
func BenchmarkE3AggregateCapacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E3AggregateCapacity(scale(b))
		if i == b.N-1 {
			reportRows(b, r)
		}
	}
}

// BenchmarkE4LoadDeviation — §V.B.2: min-load deviation ≤5%.
func BenchmarkE4LoadDeviation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E4LoadDeviation(scale(b))
		if i == b.N-1 {
			reportRows(b, r)
		}
	}
}

// BenchmarkE5LatencyOverhead — §V.B.3: ≈10% added latency.
func BenchmarkE5LatencyOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E5LatencyOverhead()
		if i == b.N-1 {
			reportRows(b, r)
		}
	}
}

// BenchmarkE6EventPipeline — §V.B.4 / Figures 7–8: monitoring story.
func BenchmarkE6EventPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E6EventPipeline()
		if i == b.N-1 {
			reportRows(b, r)
		}
	}
}

// BenchmarkE7BaselineComparison — §I/§III: linear scaling & coverage vs
// the traditional gateway architecture.
func BenchmarkE7BaselineComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E7BaselineComparison(scale(b))
		if i == b.N-1 {
			reportRows(b, r)
		}
	}
}

// BenchmarkE8ChaosRecovery — robustness extension: scripted fault storm,
// recovery times, blackholed flows, policy-violation seconds.
func BenchmarkE8ChaosRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E8ChaosRecovery(scale(b))
		if i == b.N-1 {
			reportRows(b, r)
		}
	}
}

// BenchmarkE9PacketInStorm — robustness extension: packet-in storm from
// a compromised host, overload protection off vs on.
func BenchmarkE9PacketInStorm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E9PacketInStorm(scale(b))
		if i == b.N-1 {
			reportRows(b, r)
		}
	}
}

// BenchmarkE10ControllerFailover — a whole-controller outage
// mid-workload: parked messages, switch resyncs, no flow lost.
func BenchmarkE10ControllerFailover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E10ControllerFailover(scale(b))
		if i == b.N-1 {
			reportRows(b, r)
		}
	}
}

// --- Micro-benchmarks for the hot paths ---

func benchPacket() *netpkt.Packet {
	return netpkt.NewTCP(netpkt.MACFromUint64(1), netpkt.MACFromUint64(2),
		netpkt.IP(10, 0, 0, 1), netpkt.IP(166, 111, 1, 1), 51234, 80,
		[]byte("GET /index.html HTTP/1.1\r\nHost: example.edu\r\nUser-Agent: bench\r\n\r\n"))
}

// BenchmarkPacketMarshal measures frame serialization.
func BenchmarkPacketMarshal(b *testing.B) {
	p := benchPacket()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Marshal()
	}
}

// BenchmarkPacketUnmarshal measures frame parsing.
func BenchmarkPacketUnmarshal(b *testing.B) {
	data := benchPacket().Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := netpkt.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpenFlowFlowModRoundTrip measures the control-channel codec.
func BenchmarkOpenFlowFlowModRoundTrip(b *testing.B) {
	fm := &openflow.FlowMod{
		Match:    flow.ExactMatch(flow.KeyOf(1, benchPacket())),
		Priority: 200,
		Actions: []openflow.Action{
			openflow.ActionSetDLDst{MAC: netpkt.MACFromUint64(9)},
			openflow.ActionOutput{Port: 4},
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data := openflow.Encode(fm)
		if _, err := openflow.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlowTableLookup measures the switch fast path with 1000
// exact entries plus wildcard rules installed.
func BenchmarkFlowTableLookup(b *testing.B) {
	tbl := dataplane.NewFlowTable()
	base := flow.KeyOf(1, benchPacket())
	for i := 0; i < 1000; i++ {
		k := base
		k.SrcPort = uint16(i)
		tbl.Add(dataplane.Entry{Match: flow.ExactMatch(k), Priority: 200}, 0)
	}
	tbl.Add(dataplane.Entry{Match: flow.MatchAll(), Priority: 1}, 0)
	probe := base
	probe.SrcPort = 512
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tbl.Lookup(probe); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkIDSInspectClean measures deep inspection of benign traffic
// against the community rule set (the per-packet cost behind E2/E3).
func BenchmarkIDSInspectClean(b *testing.B) {
	engine := ids.MustEngine(ids.CommunityRules)
	p := benchPacket()
	b.SetBytes(int64(p.WireLen()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if alerts := engine.Inspect(p); len(alerts) != 0 {
			b.Fatal("unexpected alert")
		}
	}
}

// BenchmarkIDSInspectMalicious measures the alert path.
func BenchmarkIDSInspectMalicious(b *testing.B) {
	engine := ids.MustEngine(ids.CommunityRules)
	p := netpkt.NewTCP(netpkt.MACFromUint64(1), netpkt.MACFromUint64(2),
		netpkt.IP(10, 0, 0, 1), netpkt.IP(166, 111, 1, 1), 51234, 80,
		[]byte("GET /login?u=admin' OR 1=1-- HTTP/1.1\r\n"))
	b.SetBytes(int64(p.WireLen()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if alerts := engine.Inspect(p); len(alerts) == 0 {
			b.Fatal("missed attack")
		}
	}
}

// BenchmarkL7Classify measures protocol identification.
func BenchmarkL7Classify(b *testing.B) {
	c := l7.NewClassifier()
	p := benchPacket()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Classify(p) != l7.HTTP {
			b.Fatal("misclassified")
		}
	}
}

// BenchmarkBalancerPick measures a dispatch decision over 200 elements
// (the paper's deployment size).
func BenchmarkBalancerPick(b *testing.B) {
	bal := loadbalance.New(loadbalance.LeastLoad, loadbalance.FlowGrain, 1)
	cands := make([]loadbalance.Candidate, 200)
	for i := range cands {
		cands[i] = loadbalance.Candidate{ID: uint64(i + 1), Load: uint64(i * 13 % 97)}
	}
	key := flow.KeyOf(1, benchPacket())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key.SrcPort = uint16(i)
		if _, ok := bal.Pick(cands, key); !ok {
			b.Fatal("no pick")
		}
	}
}

// --- Ablation benches (design choices called out in DESIGN.md) ---

// BenchmarkAblationGrain — flow-grain vs user-grain balancing (§IV.B).
func BenchmarkAblationGrain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationGrain()
		if i == b.N-1 {
			reportRows(b, r)
		}
	}
}

// BenchmarkAblationFlowSetup — reactive flow-setup cost (§IV.A).
func BenchmarkAblationFlowSetup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationFlowSetup()
		if i == b.N-1 {
			reportRows(b, r)
		}
	}
}

// BenchmarkAblationDirectoryProxy — proxy vs ARP broadcast (§III.C.2).
func BenchmarkAblationDirectoryProxy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationDirectoryProxy()
		if i == b.N-1 {
			reportRows(b, r)
		}
	}
}

// BenchmarkAblationReverseSteering — session vs forward-only steering
// (§III.C.3).
func BenchmarkAblationReverseSteering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationReverseSteering()
		if i == b.N-1 {
			reportRows(b, r)
		}
	}
}
