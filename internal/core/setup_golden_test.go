package core

// White-box golden tests of the flow-setup message stream: what the
// controller sends — bytes, order, XIDs, write boundaries — for every
// shape of session install, pinned by hashes taken before the install
// path was rewritten as plan-then-execute (rig_test.go has the rig).

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"livesec/internal/monitor"
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
	// golden holds the stream hashes taken at the parent commit, one per
	// goldenModes entry.
	golden [3]uint64
}

func chainRule(failOpen bool, svcs ...seproto.ServiceType) *policy.Rule {
	return &policy.Rule{Name: "inspect", Priority: 10, Match: policy.Match{DstPort: 80},
		Action: policy.Chain, Services: svcs, FailOpen: failOpen}
}

var goldenModes = [3]struct {
	name string
	cfg  Config
}{
	{"plain", Config{}},
	{"barriers", Config{UseBarriers: true}},
	{"keepalive", Config{Keepalive: true}},
}

var (
	ids1onSw1 = rigElem{id: 1, svc: seproto.ServiceIDS, dpid: 1, port: 10}
	ids1onSw2 = rigElem{id: 1, svc: seproto.ServiceIDS, dpid: 2, port: 10}
)

var goldenRows = []goldenRow{
	{name: "direct-same-switch", golden: [3]uint64{0xca56024375c7835d, 0xa5ec2bdc6b4ccc9c, 0xb8edcf924ddbd285},
		dst: hostB},
	{name: "direct-two-switch", golden: [3]uint64{0x40c010ba7af5f8be, 0x30e13096645d6f34, 0x3061775095df4810},
		dst: hostC},
	{name: "chain1-on-ingress", golden: [3]uint64{0xe414cdef5878f1be, 0xa528cf17a0862ce4, 0xb3e4e932b56e1d46},
		dst: hostC, rule: chainRule(false, seproto.ServiceIDS),
		elems: []rigElem{ids1onSw1}},
	{name: "chain2-three-switches", golden: [3]uint64{0xa5b32efead98ef89, 0x225439127227e36e, 0xa52aaf4652e3ec58},
		dst: hostC, rule: chainRule(false, seproto.ServiceIDS, seproto.ServiceL7),
		elems: []rigElem{ids1onSw2, {id: 2, svc: seproto.ServiceL7, dpid: 3, port: 10}}},
	{name: "chain2-colocated", golden: [3]uint64{0x47ef1994089bdabe, 0xea7d26341cd38ce9, 0xb00d6e931b2ebef0},
		dst: hostD, rule: chainRule(false, seproto.ServiceIDS, seproto.ServiceL7),
		elems: []rigElem{ids1onSw2, {id: 2, svc: seproto.ServiceL7, dpid: 2, port: 11}}},
	{name: "steer-forward-only", golden: [3]uint64{0xc7d772f755e02d12, 0xd7068dd18f85a9a5, 0xee9266437bce953c},
		dst: hostD, rule: chainRule(false, seproto.ServiceIDS),
		elems: []rigElem{ids1onSw2}, forwardOnly: true},
	{name: "chain5-uncacheable", golden: [3]uint64{0x533932dd814aac8f, 0xc71248623aa57122, 0xe40ed427f67bae8a},
		dst:  hostD,
		rule: chainRule(false, seproto.ServiceIDS, seproto.ServiceL7, seproto.ServiceFW, seproto.ServiceIDS, seproto.ServiceL7),
		elems: []rigElem{ids1onSw1, {id: 2, svc: seproto.ServiceL7, dpid: 2, port: 10},
			{id: 3, svc: seproto.ServiceFW, dpid: 3, port: 10}, {id: 4, svc: seproto.ServiceIDS, dpid: 2, port: 11},
			{id: 5, svc: seproto.ServiceL7, dpid: 3, port: 11}}},
	{name: "fail-open", golden: [3]uint64{0x554c0a73f4d14fbc, 0x5a7bbf4e4a7ce486, 0x44bf7ac206e6be32},
		dst: hostC, rule: chainRule(true, seproto.ServiceIDS)},
	{name: "fail-closed", golden: [3]uint64{0x1fa101445fbd7014, 0x1fa101445fbd7014, 0x248a81d82dcd3e35},
		dst: hostC, rule: chainRule(false, seproto.ServiceIDS)},
	{name: "deny", golden: [3]uint64{0xc25e5072dc74992c, 0xc25e5072dc74992c, 0x846d271823437a11},
		dst: hostC, rule: &policy.Rule{Name: "block", Priority: 10,
			Match: policy.Match{DstPort: 80}, Action: policy.Deny}},
	{name: "unknown-dst-direct", golden: [3]uint64{0x9478fb3529491d70, 0x9478fb3529491d70, 0xf13bfd78628c048d},
		dst: ghost},
	{name: "unknown-dst-chain", golden: [3]uint64{0xce41699d4f44ef23, 0xce41699d4f44ef23, 0xdfd09c224b335d85},
		dst: ghost, rule: chainRule(false, seproto.ServiceIDS),
		elems: []rigElem{ids1onSw1}},
	// A direct path whose first leg has no link sends nothing; a chain
	// that breaks at the last arrival has already planned three entries.
	{name: "forward-cut-first-leg", golden: [3]uint64{0x9478fb3529491d70, 0x9478fb3529491d70, 0xf13bfd78628c048d},
		dst: hostC, cut: [2]uint64{1, 2}},
	{name: "forward-cut-last-leg", golden: [3]uint64{0x52c995b4bc3e6cfc, 0x52c995b4bc3e6cfc, 0xa7e7dcb3b2c16a93},
		dst: hostD, rule: chainRule(false, seproto.ServiceIDS),
		elems: []rigElem{ids1onSw2}, cut: [2]uint64{3, 2}},
	// Forward and steered reverse paths cross the same links, so only an
	// unsteered reverse leg can break on its own.
	{name: "reverse-cut-first-leg", golden: [3]uint64{0xbc4cb0982fd2d655, 0x40f5a5dc5f76e12e, 0xfbae596bb1e666fb},
		dst: hostD, rule: chainRule(false, seproto.ServiceIDS),
		elems: []rigElem{ids1onSw2}, forwardOnly: true, cut: [2]uint64{3, 1}},
	{name: "reverse-cut-last-leg", golden: [3]uint64{0x8d4e480067ae3057, 0x6d4fb0baf30c7962, 0x50364419dd071e45},
		dst: hostD, rule: chainRule(false, seproto.ServiceIDS),
		elems: []rigElem{ids1onSw2}, forwardOnly: true, cut: [2]uint64{1, 3}},
}

// run builds the row's controller under cfg and sets up two flows of the
// same selector: source ports 40001 and 40002.
func (row goldenRow) run(tb testing.TB, cfg Config) (r *setupRig, first, second []sentMsg) {
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
	second = r.flowIn(hostA, row.dst, 40002)
	return r, first, second
}

// streamHash folds everything the rig captured, the event log and the
// final counters into one FNV-64a. Under Keepalive every switch is first
// taken through a resync, which sends its shadow table in order.
func (r *setupRig) streamHash() uint64 {
	if r.c.cfg.Keepalive {
		for _, st := range r.c.sortedSwitches() {
			r.c.markSwitchDown(st, "golden")
			r.c.beginResync(st)
		}
	}
	h := fnv.New64a()
	for _, s := range r.sent {
		fmt.Fprintf(h, "%d/%d:", s.dpid, s.batch)
		h.Write(s.wire)
	}
	for _, ev := range r.store.Events(monitor.Filter{}) {
		ev.FlowKey = nil
		fmt.Fprintf(h, "%+v\n", ev)
	}
	fmt.Fprintf(h, "%+v", r.c.Stats())
	return h.Sum64()
}

// TestSetupStreamGolden pins the control stream of every install shape ×
// {plain, UseBarriers, Keepalive} × {first flow, same selector again}.
func TestSetupStreamGolden(t *testing.T) {
	for _, row := range goldenRows {
		for i, mode := range goldenModes {
			r, _, _ := row.run(t, mode.cfg)
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

// TestPlanMissEqualsHit: a setup replayed from the plan cache sends what
// the setup that built the plan sent. Rows that cache nothing (long
// chains, fail-open, broken reverse legs) plan both flows afresh and must
// agree all the same.
func TestPlanMissEqualsHit(t *testing.T) {
	for _, row := range goldenRows {
		for _, mode := range goldenModes {
			r, first, second := row.run(t, mode.cfg)
			a, b := masked(first, 40001), masked(second, 40002)
			if !bytes.Equal(a, b) {
				t.Errorf("%s/%s: second flow's stream differs from the first's\nfirst:\n%s\nsecond:\n%s",
					row.name, mode.name, a, b)
			}
			wantHit := uint64(0)
			if _, plans := r.c.CacheStats(); plans > 0 {
				wantHit = 1
			}
			if got := r.c.stats.PlanCacheHits; got != wantHit {
				t.Errorf("%s/%s: %d plan-cache hits with %d plans cached", row.name, mode.name, got, wantHit)
			}
		}
	}
}

// TestSetupAllocs is the tripwire on the setup path's allocations: one
// whole packet-in — decode, host refresh, cached decision, plan, flow
// mods, packet-out, session record, event — for a replayed direct plan,
// a replayed two-element chain and a direct plan built afresh. The same
// flow is set up over and over, so no map grows between runs.
func TestSetupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun is meaningless here")
	}
	for _, tc := range []struct {
		name string
		row  string
		miss bool // drop the flow's plan before every setup
		max  float64
	}{
		{"plan-hit direct", "direct-two-switch", false, 11},
		{"plan-hit 2-element chain", "chain2-three-switches", false, 22},
		{"plan-miss direct", "direct-two-switch", true, 28},
	} {
		var row goldenRow
		for _, g := range goldenRows {
			if g.name == tc.row {
				row = g
			}
		}
		r, _, _ := row.run(t, Config{})
		r.keep = false
		pi := &openflow.PacketIn{BufferID: openflow.NoBuffer, InPort: hostA.port, Reason: openflow.ReasonNoMatch,
			Data: netpkt.NewTCP(hostA.mac, row.dst.mac, hostA.ip, row.dst.ip, 40002, 80, []byte("hello")).Marshal()}
		deliver := r.conns[hostA.dpid].handler
		hits := r.c.stats.PlanCacheHits
		allocs := testing.AllocsPerRun(200, func() {
			if tc.miss {
				r.c.cache.invalidateHost(hostA.mac)
			}
			deliver(pi)
		})
		if gotHit := r.c.stats.PlanCacheHits > hits; gotHit == tc.miss {
			t.Fatalf("%s: plan-cache hit = %v", tc.name, gotHit)
		}
		if allocs > tc.max {
			t.Errorf("%s: %v allocs per setup, want at most %v", tc.name, allocs, tc.max)
		}
	}
}
