package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"livesec/internal/flow"
	"livesec/internal/netpkt"
	"livesec/internal/openflow"
	"livesec/internal/slots"
	"livesec/internal/slots/slotstest"
)

// A session slot, key included, is at most 56 bytes and holds no
// pointer: livesecd keeps one per live session, and the collector never
// scans pages of pointer-free slots.
func TestSessionEntryCompact(t *testing.T) {
	if got := unsafe.Sizeof(sessionSlot{}); got > 56 {
		t.Errorf("sessionSlot is %d bytes, want at most 56", got)
	}
	var check func(typ reflect.Type, name string)
	check = func(typ reflect.Type, name string) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := range typ.NumField() {
				check(typ.Field(i).Type, name+"."+typ.Field(i).Name)
			}
		case reflect.Array:
			check(typ.Elem(), name+"[]")
		case reflect.Bool, reflect.Int64, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("%s is a %s, want a number or a bool", name, typ)
		}
	}
	check(reflect.TypeOf(sessionSlot{}), "sessionSlot")
}

// rememberDirect remembers n direct sessions, the i'th at switch dpid(i).
func rememberDirect(c *Controller, n int, dpid func(i int) uint64) {
	direct := &sessionPlan{}
	for i := range n {
		c.rememberSession(sessionKey(i), dpid(i), "allow-web", direct, false)
	}
}

// 65,536 direct sessions, wire_miss's live set after its warm-up, retain
// at most 72 bytes each, heap and mapped slabs together: a 48-byte slot
// and its share of the index. A 72-byte slot retained 88, and a Go map of
// the same records 176.
func TestSessionRetention(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation changes heap accounting")
	}
	const n = 1 << 16
	c := newSetupRig(t, Config{}, []uint64{1}, nil, nil).c
	h0 := slotstest.Retained()
	rememberDirect(c, n, func(int) uint64 { return 1 })
	perSession := float64(slotstest.Retained()-h0) / n
	runtime.KeepAlive(c)
	if perSession > 72 {
		t.Fatalf("%.1f bytes retained per session, want at most 72", perSession)
	}
	t.Logf("%.1f bytes retained per session", perSession)
}

// A store that held 65,536 sessions, all retired by FLOW_REMOVED, keeps
// at most its first page: the live heap returns to within 64 KiB of what
// it was before the fill, and the mapped slabs to what they were: a Go
// map never frees its buckets.
func TestDrainedSessionStoreGivesPagesBack(t *testing.T) {
	const n = 1 << 16
	r := newSetupRig(t, Config{}, []uint64{1}, nil, nil)
	r.keep = false
	c, st := r.c, r.c.switches[1]
	h0 := slotstest.Retained()
	m0 := slots.MappedBytes()
	rememberDirect(c, n, func(int) uint64 { return 1 })
	if got := c.sessions.pages.Len(); got != n {
		t.Fatalf("%d sessions live after the fill, want %d", got, n)
	}
	for i := range n {
		c.handleFlowRemoved(st, &openflow.FlowRemoved{Match: flow.ExactMatch(sessionKey(i)),
			Reason: openflow.RemovedIdleTimeout})
	}
	if got, size := c.sessions.pages.Len(), c.sessions.pages.Size(); got != 0 || size > slots.FirstPageSlots {
		t.Fatalf("after the drain %d sessions live in %d slots, want 0 in at most %d", got, size, slots.FirstPageSlots)
	}
	retained, mapped := slotstest.Retained()-h0, slots.MappedBytes()-m0
	runtime.KeepAlive(c)
	if mapped != 0 {
		t.Fatalf("the drained store keeps %d more bytes mapped than before the fill, want 0", mapped)
	}
	if !raceEnabled && retained > 64<<10 {
		t.Fatalf("the drained store retains %d bytes, want at most 64 KiB", retained)
	}
	t.Logf("the drained store retains %d bytes", retained)
}

// sessionKey is the i'th of 2²⁴ distinct forward-direction flows.
func sessionKey(i int) flow.Key {
	return flow.Key{EthType: netpkt.EtherTypeIPv4, IPSrc: netpkt.IP(10, byte(i>>16), byte(i>>8), byte(i)),
		IPDst: netpkt.IP(10, 0, 0, 1), IPProto: netpkt.ProtoTCP, SrcPort: 40000, DstPort: 80}
}

// The intern tables hold only what live sessions reference. 12,000
// sessions, each with its own rule and chain and half of them overwritten
// with another, pass through a window of 50 live sessions, and
// ReapplyPolicies retires every one the default decision did not admit.
// The route table then holds exactly the routes of the sessions still
// live, and never used more slots than were live at once.
func TestSessionInternsBounded(t *testing.T) {
	const n, window = 12000, 50
	r := newSetupRig(t, Config{}, []uint64{1}, nil, nil)
	r.keep = false
	c := r.c
	type named struct {
		rule  string
		seIDs []uint64
	}
	want := make(map[flow.Key]named)
	remember := func(key flow.Key, rule string, seIDs []uint64) {
		c.rememberSession(key, 1, rule, &sessionPlan{seIDs: seIDs, via: uitoaList(seIDs)}, len(seIDs) == 1)
		want[key] = named{rule, seIDs}
	}
	for i := range n {
		key := sessionKey(i)
		remember(key, fmt.Sprint("rule-", i), []uint64{uint64(i), uint64(n + i)})
		switch {
		case i%7 == 0: // admitted by the default decision, which ReapplyPolicies keeps
			remember(key, "", nil)
		case i%2 == 0:
			remember(key, fmt.Sprint("rule-", n+i), []uint64{uint64(n + i)})
		}
		if i >= window {
			c.forgetSession(sessionKey(i - window))
			delete(want, sessionKey(i-window))
		}
		if i%1000 == 500 {
			c.ReapplyPolicies()
			for key, w := range want {
				if w.rule != "" {
					delete(want, key)
				}
			}
		}
	}
	got := make(map[flow.Key]named)
	routes := make(map[routeKey]bool)
	for _, rec := range c.sessionsWhere(func(sessionRecord) bool { return true }) {
		got[rec.key] = named{rec.rule, rec.seIDs}
		routes[routeKey{rec.dpid, rec.rule, uitoaList(rec.seIDs)}] = true
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%d live sessions name other rules or chains than the %d remembered last", len(got), len(want))
	}
	if len(c.routes.ids) != len(routes) {
		t.Errorf("the route table holds %d routes; live sessions reference %d", len(c.routes.ids), len(routes))
	}
	// A remember references its new route before it releases the one it
	// overwrites, so one more than the live sessions may be held.
	if len(c.routes.slots) > window+2 {
		t.Errorf("the route table grew to %d slots for at most %d live sessions", len(c.routes.slots), window+1)
	}
	for key := range want {
		c.forgetSession(key)
	}
	if len(c.routes.ids)+len(c.failOpen) != 0 || len(c.routes.free) != len(c.routes.slots) {
		t.Errorf("with no session live, the route table holds %d routes, %d slots unfreed, and %d fail-open windows are open",
			len(c.routes.ids), len(c.routes.slots)-len(c.routes.free), len(c.failOpen))
	}
}

// BenchmarkSessionStore remembers 65,536 direct sessions, wire_miss's
// live set after its warm-up, and reports the bytes they retain per
// session, heap and mapped slabs together; each timed iteration
// remembers and forgets one more session.
func BenchmarkSessionStore(b *testing.B) {
	const n = 1 << 16
	c := newSetupRig(b, Config{}, []uint64{1}, nil, nil).c
	direct := &sessionPlan{}
	h0 := slotstest.Retained()
	rememberDirect(c, n, func(int) uint64 { return 1 })
	retained := float64(slotstest.Retained()-h0) / n
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := sessionKey(n + i%n)
		c.rememberSession(key, 1, "allow-web", direct, false)
		c.forgetSession(key)
	}
	b.ReportMetric(retained, "retained-B/session")
}

// BenchmarkSessionsWhere times the walk a drain and ReapplyPolicies make:
// sessionsWhere over 65,536 sessions on 32 switches, picking one
// switch's.
func BenchmarkSessionsWhere(b *testing.B) {
	const n, dpids = 1 << 16, 32
	c := newSetupRig(b, Config{}, []uint64{1}, nil, nil).c
	rememberDirect(c, n, func(i int) uint64 { return uint64(1 + i%dpids) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := c.sessionsWhere(func(rec sessionRecord) bool { return rec.dpid == 7 }); len(got) != n/dpids {
			b.Fatalf("picked %d sessions, want %d", len(got), n/dpids)
		}
	}
}
