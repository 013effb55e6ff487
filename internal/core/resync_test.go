package core

// White-box test of what a resync reinstalls: the shadow holds only the
// entries no session owns, and each live session's entries are planned
// afresh from its record (replaySessions).

import (
	"bytes"
	"testing"

	"livesec/internal/monitor"
	"livesec/internal/netpkt"
	"livesec/internal/openflow"
	"livesec/internal/policy"
	"livesec/internal/seproto"
)

// maskedFlowMods encodes the flow mods among msgs that dpid received,
// with XIDs zeroed.
func maskedFlowMods(msgs []sentMsg, dpid uint64) [][]byte {
	var out [][]byte
	for _, s := range msgs {
		if fm, ok := s.m.(*openflow.FlowMod); ok && s.dpid == dpid {
			m := *fm
			m.XID = 0
			out = append(out, openflow.Encode(&m))
		}
	}
	return out
}

func TestResyncReinstallsShadowThenSessions(t *testing.T) {
	cfg := Config{Policies: policy.NewTable(policy.Allow)}
	for _, r := range []*policy.Rule{
		{Name: "inspect", Priority: 10, Match: policy.Match{DstPort: 80},
			Action: policy.Chain, Services: []seproto.ServiceType{seproto.ServiceIDS}},
		{Name: "open", Priority: 10, Match: policy.Match{DstPort: 81}, Action: policy.Chain,
			Services: []seproto.ServiceType{seproto.ServiceL7}, FailOpen: true},
		{Name: "block", Priority: 10, Match: policy.Match{DstPort: 82}, Action: policy.Deny},
	} {
		if err := cfg.Policies.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	r := newSetupRig(t, cfg, goldenDPIDs, goldenHosts, []rigElem{ids1onSw2})
	setup := func(dst rigHost, dport uint16) []sentMsg {
		start := len(r.sent)
		r.packetIn(hostA.dpid, hostA.port, netpkt.NewTCP(hostA.mac, dst.mac, hostA.ip, dst.ip, 40001, dport, nil))
		return r.sent[start:]
	}
	routed := setup(hostD, 22)
	chained := setup(hostC, 80)
	failOpen := setup(hostD, 81)
	drop := setup(hostC, 82)
	if st := r.c.Stats(); st.FlowsRouted != 2 || st.FlowsChained != 1 || st.FlowsFailedOpen != 1 || st.DropRules != 1 {
		t.Fatalf("setups: %+v", st)
	}

	// The drop is the only entry outside a session's plan.
	for _, st := range r.c.sortedSwitches() {
		want := 0
		if st.dpid == hostA.dpid {
			want = 1
		}
		if len(st.shadow) != want {
			t.Fatalf("sw%d shadow holds %d entries, want %d", st.dpid, len(st.shadow), want)
		}
		for _, e := range st.shadow {
			if e.fm.Cookie != dropCookie {
				t.Fatalf("sw%d shadow holds a session entry: %+v", st.dpid, e.fm)
			}
		}
	}

	sw1 := r.c.switches[hostA.dpid]
	resync := func(want ...[]sentMsg) {
		t.Helper()
		start := len(r.sent)
		r.c.markSwitchDown(sw1, "test")
		r.c.beginResync(sw1)
		got := maskedFlowMods(r.sent[start:], sw1.dpid)[1:] // after the wipe
		var exp [][]byte
		for _, msgs := range want {
			exp = append(exp, maskedFlowMods(msgs, sw1.dpid)...)
		}
		if len(got) != len(exp) {
			t.Fatalf("resync reinstalled %d entries, want %d", len(got), len(exp))
		}
		for i := range got {
			if !bytes.Equal(got[i], exp[i]) {
				t.Fatalf("reinstalled entry %d differs:\ngot  %x\nwant %x", i, got[i], exp[i])
			}
		}
		r.conns[sw1.dpid].handler(&openflow.BarrierReply{XID: sw1.resyncXID})
		evs := r.store.Events(monitor.Filter{Type: monitor.EventSwitchResync})
		if d, w := evs[len(evs)-1].Detail, uitoa(uint64(len(exp)))+" entries reinstalled, barrier confirmed"; d != w {
			t.Fatalf("resync event %q, want %q", d, w)
		}
	}
	// No topology change: the shadow's drop, then each session's entries
	// on the switch in install order, as the setups sent them.
	resync(drop, routed, chained, failOpen)
	// A drained session is forgotten, so a resync leaves it out.
	if r.c.drainElement(ids1onSw2.id) != 1 {
		t.Fatal("the chained session was not drained")
	}
	resync(drop, routed, failOpen)
}
