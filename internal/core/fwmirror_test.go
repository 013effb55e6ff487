package core

// White-box tests of the firewall state mirror's bounds (fwstate.go):
// the cap evicts least-recently-synced first, the TTL forgets silent
// sessions, and a session that keeps syncing survives both and still
// hands off.

import (
	"sort"
	"testing"
	"time"

	"livesec/internal/flow"
	"livesec/internal/netpkt"
	"livesec/internal/seproto"
	"livesec/internal/sim"
)

// fwMirrorController is a controller with one registered switch.
func fwMirrorController() *Controller {
	c := New(Config{Engine: sim.NewEngine(1)})
	addSinkSwitch(c, 1)
	return c
}

// fwKey is the i-th of a family of distinct UDP pseudo-sessions — the
// kind that never reports CLOSED.
func fwKey(i int) seproto.SessionKey {
	return seproto.SessionKey{
		Proto: netpkt.ProtoUDP,
		LoIP:  netpkt.IP(10, 1, byte(i>>16), byte(i>>8)), LoPort: uint16(i&0xff) + 1,
		HiIP: netpkt.IP(166, 111, 1, 1), HiPort: 53,
	}
}

// fwSync delivers a STATE_SYNC from firewall element 1, reporting ONLINE
// first as the element's heartbeat would: the mirror only takes reports
// from registered elements.
func fwSync(c *Controller, states ...seproto.SessionState) {
	seOnline(c, 1, 1, 1, seproto.ServiceFW, seproto.Load{})
	pkt := netpkt.NewUDP(netpkt.MACFromUint64(0x5E0000+1), netpkt.MAC{}, netpkt.IP(10, 9, 0, 1), netpkt.IP(10, 0, 0, 1), 1, 1, nil)
	c.handleFWStateSync(pkt, &seproto.StateSync{SEID: 1, Cert: c.Certify(1, pkt.EthSrc), States: states})
}

// fwSyncNew mirrors keys[lo:hi] as NEW sessions held by element 1.
func fwSyncNew(c *Controller, lo, hi int) {
	states := make([]seproto.SessionState, 0, hi-lo)
	for i := lo; i < hi; i++ {
		states = append(states, seproto.SessionState{Key: fwKey(i), State: seproto.StateNew})
	}
	fwSync(c, states...)
}

func advance(t *testing.T, c *Controller, d time.Duration) {
	t.Helper()
	if err := c.eng.Run(c.eng.Now() + d); err != nil {
		t.Fatal(err)
	}
}

// TestFWMirrorCapEvictsOldestSync pushes fwMirrorCap+100 sessions that
// never close through the mirror. Housekeeping trims it back to the cap,
// dropping the 100 that synced first — and, among sessions synced at the
// same instant, the 100 smallest keys, so the survivors are the same on
// every run.
func TestFWMirrorCapEvictsOldestSync(t *testing.T) {
	const extra = 100
	for _, tc := range []struct {
		name string
		gap  time.Duration // between the first `extra` syncs and the rest
		gone func() []seproto.SessionKey
	}{
		{"older batch", time.Second, func() []seproto.SessionKey {
			keys := make([]seproto.SessionKey, extra)
			for i := range keys {
				keys[i] = fwKey(i)
			}
			return keys
		}},
		{"same instant, key order", 0, func() []seproto.SessionKey {
			keys := make([]seproto.SessionKey, fwMirrorCap+extra)
			for i := range keys {
				keys[i] = fwKey(i)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
			return keys[:extra]
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := fwMirrorController()
			fwSyncNew(c, 0, extra)
			advance(t, c, tc.gap)
			fwSyncNew(c, extra, fwMirrorCap+extra)
			if got := len(c.fwMirror); got != fwMirrorCap+extra {
				t.Fatalf("mirrored %d sessions, want %d", got, fwMirrorCap+extra)
			}
			c.housekeep()
			if got := len(c.fwMirror); got != fwMirrorCap {
				t.Fatalf("after housekeeping the mirror holds %d sessions, want fwMirrorCap = %d", got, fwMirrorCap)
			}
			for _, k := range tc.gone() {
				if _, ok := c.fwMirror[k]; ok {
					t.Fatalf("session %v survived; it is among the %d oldest", k, extra)
				}
			}

			// None of them ever reports CLOSED: the TTL forgets them all.
			advance(t, c, fwMirrorTTL+time.Second)
			c.housekeep()
			if got := len(c.fwMirror); got != 0 {
				t.Fatalf("%d sessions outlived fwMirrorTTL", got)
			}
		})
	}
}

// TestFWMirrorResyncOutlivesTTL keeps one session syncing while its
// sibling falls silent: past the sibling's TTL only the live one is
// left, and a re-steer onto another firewall still transfers its state.
func TestFWMirrorResyncOutlivesTTL(t *testing.T) {
	c := fwMirrorController()
	fk := flow.Key{EthType: netpkt.EtherTypeIPv4, IPProto: netpkt.ProtoTCP,
		IPSrc: netpkt.IP(10, 1, 0, 1), SrcPort: 40000, IPDst: netpkt.IP(166, 111, 1, 1), DstPort: 80}
	live, _, ok := seproto.SessionKeyOf(fk)
	if !ok {
		t.Fatal("no session key for the TCP flow")
	}
	silent := fwKey(1)
	sync := func(k seproto.SessionKey, st seproto.ConnState) {
		fwSync(c, seproto.SessionState{Key: k, State: st})
	}
	sync(live, seproto.StateSynSent)
	sync(silent, seproto.StateNew)
	advance(t, c, 200*time.Second)
	sync(live, seproto.StateEstablished)
	advance(t, c, 200*time.Second)
	c.housekeep()
	if _, ok := c.fwMirror[silent]; ok {
		t.Fatal("session silent for 400s is still mirrored")
	}
	ent, ok := c.fwMirror[live]
	if !ok {
		t.Fatal("session re-synced 200s ago was dropped")
	}

	// The flow is re-steered through firewall 2, which never saw it.
	seOnline(c, 1, 2, 2, seproto.ServiceFW, seproto.Load{})
	c.fwMaybeHandoff(fk, []uint64{2})
	if len(c.fwPending) != 1 || ent.holder != 2 {
		t.Fatalf("handoffs pending = %d, holder = se%d; want 1 and se2", len(c.fwPending), ent.holder)
	}
}
