package core

// White-box golden tests of the flow-setup message stream: what the
// controller sends — bytes, order, XIDs, write boundaries — for every
// shape of session install (rig_test.go has the rig). The hash folds in
// the controller's Outcome and event log, never the mechanism counters
// of Stats, so deleting a counter keeps every hash.

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"livesec/internal/flow"
	"livesec/internal/netpkt"
	"livesec/internal/openflow"
	"livesec/internal/policy"
	"livesec/internal/seproto"
)

// The golden topology: three switches; a and b share sw1, c sits on sw2,
// d on sw3; ghost is an address nobody has announced.
var (
	goldenDPIDs = []uint64{1, 2, 3}
	hostA       = rigHost{dpid: 1, port: 1, mac: netpkt.MACFromUint64(0xA1), ip: netpkt.IP(10, 0, 0, 1)}
	hostB       = rigHost{dpid: 1, port: 2, mac: netpkt.MACFromUint64(0xB2), ip: netpkt.IP(10, 0, 0, 2)}
	hostC       = rigHost{dpid: 2, port: 1, mac: netpkt.MACFromUint64(0xC3), ip: netpkt.IP(10, 0, 0, 3)}
	hostD       = rigHost{dpid: 3, port: 1, mac: netpkt.MACFromUint64(0xD4), ip: netpkt.IP(10, 0, 0, 4)}
	ghost       = rigHost{mac: netpkt.MACFromUint64(0xEE), ip: netpkt.IP(10, 0, 0, 99)}
	goldenHosts = []rigHost{hostA, hostB, hostC, hostD}
)

// goldenRow is one shape of session install. Every flow runs from hostA.
type goldenRow struct {
	name  string
	dst   rigHost
	rule  *policy.Rule // nil: the allow-all default decides
	elems []rigElem
	// forwardOnly sets Config.SteerForwardOnly; cut removes the logical
	// link from switch cut[0] towards cut[1] after discovery.
	forwardOnly bool
	cut         [2]uint64
	// golden holds the stream hashes, one per goldenModes entry.
	golden [3]uint64
}

func chainRule(failOpen bool, svcs ...seproto.ServiceType) *policy.Rule {
	return &policy.Rule{Name: "inspect", Priority: 10, Match: policy.Match{DstPort: 80},
		Action: policy.Chain, Services: svcs, FailOpen: failOpen}
}

// goldenModes: the resync mode is the plain config with every switch
// taken through a resync once the flows are set up.
var goldenModes = [3]struct {
	name   string
	cfg    Config
	resync bool
}{
	{"plain", Config{}, false},
	{"barriers", Config{UseBarriers: true}, false},
	{"resync", Config{}, true},
}

var (
	ids1onSw1 = rigElem{id: 1, svc: seproto.ServiceIDS, dpid: 1, port: 10}
	ids1onSw2 = rigElem{id: 1, svc: seproto.ServiceIDS, dpid: 2, port: 10}
)

var goldenRows = []goldenRow{
	{name: "direct-same-switch", golden: [3]uint64{0x9608dd8e91961bb0, 0x8fc3e5a487b2ae04, 0xd93676d261276865},
		dst: hostB},
	{name: "direct-two-switch", golden: [3]uint64{0x3ad4cbc2328d63b0, 0x26812f5f0d592772, 0x5241815040166183},
		dst: hostC},
	{name: "chain1-on-ingress", golden: [3]uint64{0x0a3f4cb73a5becc9, 0xb60bc1a0206dbf43, 0x17daa9cf2f2e1264},
		dst: hostC, rule: chainRule(false, seproto.ServiceIDS),
		elems: []rigElem{ids1onSw1}},
	{name: "chain2-three-switches", golden: [3]uint64{0x471f851a45247c98, 0xe467ba7220aa7b4f, 0xc7eae54c3d46eef7},
		dst: hostC, rule: chainRule(false, seproto.ServiceIDS, seproto.ServiceL7),
		elems: []rigElem{ids1onSw2, {id: 2, svc: seproto.ServiceL7, dpid: 3, port: 10}}},
	{name: "chain2-colocated", golden: [3]uint64{0x91f1787bbc1e3b09, 0x622c4f097ad29acc, 0xae2224ab48b02e8a},
		dst: hostD, rule: chainRule(false, seproto.ServiceIDS, seproto.ServiceL7),
		elems: []rigElem{ids1onSw2, {id: 2, svc: seproto.ServiceL7, dpid: 2, port: 11}}},
	{name: "steer-forward-only", golden: [3]uint64{0xe61e1a4733bf2100, 0x9066108fed4bb1e6, 0x829c01ac269a06da},
		dst: hostD, rule: chainRule(false, seproto.ServiceIDS),
		elems: []rigElem{ids1onSw2}, forwardOnly: true},
	{name: "chain5-uncacheable", golden: [3]uint64{0x810d7c94bdee55d3, 0x84ea0ed7c35e272f, 0xe36569444a3791ad},
		dst:  hostD,
		rule: chainRule(false, seproto.ServiceIDS, seproto.ServiceL7, seproto.ServiceFW, seproto.ServiceIDS, seproto.ServiceL7),
		elems: []rigElem{ids1onSw1, {id: 2, svc: seproto.ServiceL7, dpid: 2, port: 10},
			{id: 3, svc: seproto.ServiceFW, dpid: 3, port: 10}, {id: 4, svc: seproto.ServiceIDS, dpid: 2, port: 11},
			{id: 5, svc: seproto.ServiceL7, dpid: 3, port: 11}}},
	{name: "fail-open", golden: [3]uint64{0x5468a5d6d46a4431, 0x16d6c564d41cd9df, 0x64a2499055e26d10},
		dst: hostC, rule: chainRule(true, seproto.ServiceIDS)},
	{name: "fail-closed", golden: [3]uint64{0xa3e578d78a3a23fb, 0xa3e578d78a3a23fb, 0x8fbb1f86f04ef876},
		dst: hostC, rule: chainRule(false, seproto.ServiceIDS)},
	{name: "deny", golden: [3]uint64{0xdb2b2c5b8411b656, 0xdb2b2c5b8411b656, 0xca0491bbd49b4466},
		dst: hostC, rule: &policy.Rule{Name: "block", Priority: 10,
			Match: policy.Match{DstPort: 80}, Action: policy.Deny}},
	{name: "unknown-dst-direct", golden: [3]uint64{0x4a1c175eb502f809, 0x4a1c175eb502f809, 0x8db7878bb0e158f1},
		dst: ghost},
	{name: "unknown-dst-chain", golden: [3]uint64{0x9231af6fbac409b7, 0x9231af6fbac409b7, 0x5236faae7592362e},
		dst: ghost, rule: chainRule(false, seproto.ServiceIDS),
		elems: []rigElem{ids1onSw1}},
	// A direct path whose first leg has no link sends nothing; a chain
	// that breaks at the last arrival has already planned three entries.
	{name: "forward-cut-first-leg", golden: [3]uint64{0x4a1c175eb502f809, 0x4a1c175eb502f809, 0x8db7878bb0e158f1},
		dst: hostC, cut: [2]uint64{1, 2}},
	{name: "forward-cut-last-leg", golden: [3]uint64{0xdb3a4a22cc01f272, 0xdb3a4a22cc01f272, 0x02791b4c99237fc0},
		dst: hostD, rule: chainRule(false, seproto.ServiceIDS),
		elems: []rigElem{ids1onSw2}, cut: [2]uint64{3, 2}},
	// Forward and steered reverse paths cross the same links, so only an
	// unsteered reverse leg can break on its own.
	{name: "reverse-cut-first-leg", golden: [3]uint64{0xc76c460d7f6ad3d3, 0xcba352f8c90ed3fb, 0x8b39463ea5ef71b4},
		dst: hostD, rule: chainRule(false, seproto.ServiceIDS),
		elems: []rigElem{ids1onSw2}, forwardOnly: true, cut: [2]uint64{3, 1}},
	{name: "reverse-cut-last-leg", golden: [3]uint64{0x0605116c6d6ef27a, 0xc3defa152bcc880d, 0x54a2e8b052e0bf0e},
		dst: hostD, rule: chainRule(false, seproto.ServiceIDS),
		elems: []rigElem{ids1onSw2}, forwardOnly: true, cut: [2]uint64{1, 3}},
}

// run builds the row's controller under cfg and sets up three flows of
// the same selector: source ports 40001, 40002 and 40003. The first
// flow's plan is always built; the second sighting caches it (admit,
// cache.go) and the third replays it whenever the row caches one.
func (row goldenRow) run(tb testing.TB, cfg Config) (r *setupRig, first, third []sentMsg) {
	tb.Helper()
	cfg.SteerForwardOnly = row.forwardOnly
	if row.rule != nil {
		cfg.Policies = policy.NewTable(policy.Allow)
		if err := cfg.Policies.Add(row.rule); err != nil {
			tb.Fatal(err)
		}
	}
	r = newSetupRig(tb, cfg, goldenDPIDs, goldenHosts, row.elems)
	if row.cut[0] != 0 {
		delete(r.c.switches[row.cut[0]].peers, row.cut[1])
	}
	first = r.flowIn(hostA, row.dst, 40001)
	r.flowIn(hostA, row.dst, 40002)
	third = r.flowIn(hostA, row.dst, 40003)
	return r, first, third
}

// streamHash folds everything the rig captured and the controller's
// outcome and event log (WriteOutcome) into one FNV-64a.
func (r *setupRig) streamHash() uint64 {
	h := fnv.New64a()
	for _, s := range r.sent {
		fmt.Fprintf(h, "%d/%d:", s.dpid, s.batch)
		h.Write(s.wire)
	}
	r.c.WriteOutcome(h)
	return h.Sum64()
}

// TestSetupStreamGolden pins the control stream of every install shape ×
// {plain, UseBarriers, resync} × three flows of one selector.
func TestSetupStreamGolden(t *testing.T) {
	for _, row := range goldenRows {
		for i, mode := range goldenModes {
			r, _, _ := row.run(t, mode.cfg)
			if mode.resync {
				r.resyncAll()
			}
			if got := r.streamHash(); got != row.golden[i] {
				t.Errorf("%s/%s: stream hash %#016x, golden %#016x", row.name, mode.name, got, row.golden[i])
			}
		}
	}
}

// masked renders a setup's messages with what legitimately differs
// between two flows of one selector blanked: XIDs, the ephemeral source
// port wherever a match carries it (tp_src forward, tp_dst in reverse),
// the batch ordinal (rebased to the setup's first) and the released
// frame itself.
func masked(msgs []sentMsg, srcPort uint16) []byte {
	var out bytes.Buffer
	base := -1
	for _, s := range msgs {
		if base < 0 && s.batch != 0 {
			base = s.batch - 1
		}
		batch := s.batch
		if batch != 0 {
			batch -= base
		}
		fmt.Fprintf(&out, "sw%d batch %d: ", s.dpid, batch)
		switch m := s.m.(type) {
		case *openflow.FlowMod:
			fm := *m
			fm.XID = 0
			if fm.Match.Key.SrcPort == srcPort {
				fm.Match.Key.SrcPort = 0
			}
			if fm.Match.Key.DstPort == srcPort {
				fm.Match.Key.DstPort = 0
			}
			fmt.Fprintf(&out, "%+v\n", fm)
		case *openflow.PacketOut:
			po := *m
			po.XID, po.Data = 0, nil
			fmt.Fprintf(&out, "%+v\n", po)
		case *openflow.BarrierRequest:
			fmt.Fprintln(&out, "barrier")
		default:
			fmt.Fprintf(&out, "%T %+v\n", m, m)
		}
	}
	return out.Bytes()
}

// TestPlanMissEqualsHit: a setup replayed from the plan cache (the
// third flow) sends what the setup that built a plan (the first) sent.
// Rows that cache nothing (long chains, fail-open, broken reverse legs)
// plan every flow afresh and must agree all the same.
func TestPlanMissEqualsHit(t *testing.T) {
	for _, row := range goldenRows {
		for _, mode := range goldenModes {
			r, first, third := row.run(t, mode.cfg)
			a, b := masked(first, 40001), masked(third, 40003)
			if !bytes.Equal(a, b) {
				t.Errorf("%s/%s: third flow's stream differs from the first's\nfirst:\n%s\nthird:\n%s",
					row.name, mode.name, a, b)
			}
			// The selector's second sighting caches its plan; only the
			// third flow replays it.
			wantHit := uint64(0)
			plans := len(r.c.cache.plans)
			if plans > 0 {
				wantHit = 1
			}
			if got := r.c.stats.PlanCacheHits; got != wantHit {
				t.Errorf("%s/%s: %d plan-cache hits with %d plans cached", row.name, mode.name, got, plans)
			}
		}
	}
}

// setupCase is one setup shape TestSetupAllocs bounds and BenchmarkSetup
// times: a golden row's flow, set up over and over once its selector is
// warm, so no map grows between runs.
type setupCase struct {
	name string
	row  string
	miss bool // drop the flow's plan before every setup
	// cold sets up a selector the row never sent, its sighting forgotten
	// before every setup: a first sighting, which admission refuses to
	// cache (admit), as every flow of wire_miss is.
	cold      bool
	maxAllocs float64
}

var setupCases = []setupCase{
	{"plan-hit direct", "direct-two-switch", false, false, 3},
	{"plan-hit 2-element chain", "chain2-three-switches", false, false, 5},
	{"plan-miss direct", "direct-two-switch", true, false, 15},
	{"first-sighting direct", "direct-two-switch", false, true, 4},
}

// prepare builds the case's rig with its selector warmed and returns one
// whole setup of the flow, and a check that the setups since prepare hit
// (or, for a miss case, missed) the plan cache.
func (tc setupCase) prepare(tb testing.TB) (setup func(), check func()) {
	tb.Helper()
	var row goldenRow
	for _, g := range goldenRows {
		if g.name == tc.row {
			row = g
		}
	}
	r, _, _ := row.run(tb, Config{})
	r.keep = false
	dstIP := row.dst.ip
	if tc.cold {
		dstIP = netpkt.IP(10, 0, 0, 77) // routed by dst MAC; a selector nobody sent
	}
	pkt := netpkt.NewTCP(hostA.mac, row.dst.mac, hostA.ip, dstIP, 40002, 80, []byte("hello"))
	pi := &openflow.PacketIn{BufferID: openflow.NoBuffer, InPort: hostA.port, Reason: openflow.ReasonNoMatch,
		Data: pkt.Marshal()}
	fp := selectorOf(hostA.dpid, flow.KeyOf(hostA.port, pkt)).fingerprint()
	deliver := r.conns[hostA.dpid].handler
	hits, decisionHits := r.c.stats.PlanCacheHits, r.c.stats.DecisionCacheHits
	setup = func() {
		switch {
		case tc.miss:
			r.c.cache.invalidateHost(hostA.mac)
		case tc.cold:
			delete(r.c.cache.seen, fp)
		}
		deliver(pi)
	}
	check = func() {
		tb.Helper()
		wantHit := !tc.miss && !tc.cold
		if gotHit := r.c.stats.PlanCacheHits > hits; gotHit != wantHit {
			tb.Fatalf("%s: plan-cache hit = %v", tc.name, gotHit)
		}
		if tc.cold && r.c.stats.DecisionCacheHits != decisionHits {
			tb.Fatalf("%s: a first sighting hit the decision cache", tc.name)
		}
	}
	return setup, check
}

// TestSetupAllocs is the tripwire on the setup path's allocations: one
// whole packet-in — decode, host refresh, policy lookup, plan, flow
// mods, packet-out, session record, event — for each setupCase.
func TestSetupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun is meaningless here")
	}
	for _, tc := range setupCases {
		setup, check := tc.prepare(t)
		allocs := testing.AllocsPerRun(200, setup)
		check()
		if allocs > tc.maxAllocs {
			t.Errorf("%s: %v allocs per setup, want at most %v", tc.name, allocs, tc.maxAllocs)
		}
	}
}

// BenchmarkSetup is in the bench-hot set: the wall-clock cost of one
// whole setup for each setupCase, on a controller whose switches write
// to capturing connections.
func BenchmarkSetup(b *testing.B) {
	for _, tc := range setupCases {
		b.Run(tc.name, func(b *testing.B) {
			setup, check := tc.prepare(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				setup()
			}
			b.StopTimer()
			check()
		})
	}
}
