package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"livesec/internal/flow"
	"livesec/internal/netpkt"
)

// A session entry is at most 40 bytes and holds no pointer: livesecd
// keeps one per live session, and the collector never scans a map whose
// keys and values are pointer-free.
func TestSessionEntryCompact(t *testing.T) {
	if got := unsafe.Sizeof(sessionEntry{}); got > 40 {
		t.Errorf("sessionEntry is %d bytes, want at most 40", got)
	}
	typ := reflect.TypeOf(sessionEntry{})
	for i := range typ.NumField() {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Int64, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("sessionEntry.%s is a %s, want a number or a bool", f.Name, f.Type)
		}
	}
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
// Each table then holds exactly the rules and chains of the sessions
// still live, and never used more slots than were live at once.
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
	rules, chains := make(map[string]bool), make(map[string]bool)
	for _, rec := range c.sessionsWhere(func(sessionRecord) bool { return true }) {
		got[rec.key] = named{rec.rule, rec.seIDs}
		rules[rec.rule], chains[uitoaList(rec.seIDs)] = true, true
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%d live sessions name other rules or chains than the %d remembered last", len(got), len(want))
	}
	delete(rules, "")
	delete(chains, "")
	if len(c.rules.ids) != len(rules) || len(c.chains.ids) != len(chains) {
		t.Errorf("intern tables hold %d rules and %d chains; live sessions reference %d and %d",
			len(c.rules.ids), len(c.chains.ids), len(rules), len(chains))
	}
	// A remember references its new values before it releases the ones
	// it overwrites, so one more than the live sessions may be held.
	if len(c.rules.slots) > window+2 || len(c.chains.slots) > window+2 {
		t.Errorf("intern tables grew to %d and %d slots for at most %d live sessions",
			len(c.rules.slots), len(c.chains.slots), window+1)
	}
	for key := range want {
		c.forgetSession(key)
	}
	if len(c.rules.ids)+len(c.chains.ids) != 0 ||
		len(c.rules.free) != len(c.rules.slots) || len(c.chains.free) != len(c.chains.slots) {
		t.Errorf("with no session live, the tables hold %d rules and %d chains, %d and %d slots unfreed",
			len(c.rules.ids), len(c.chains.ids), len(c.rules.slots)-len(c.rules.free), len(c.chains.slots)-len(c.chains.free))
	}
}

// BenchmarkSessionStore remembers 65,536 direct sessions, wire_miss's
// live set after its warm-up, and reports the heap they retain per
// session; each timed iteration remembers and forgets one more session.
func BenchmarkSessionStore(b *testing.B) {
	const n = 1 << 16
	c := newSetupRig(b, Config{}, []uint64{1}, nil, nil).c
	direct := &sessionPlan{}
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	h0 := heap()
	for i := range n {
		c.rememberSession(sessionKey(i), 1, "allow-web", direct, false)
	}
	retained := float64(heap()-h0) / n
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := sessionKey(n + i%n)
		c.rememberSession(key, 1, "allow-web", direct, false)
		c.forgetSession(key)
	}
	b.ReportMetric(retained, "retained-B/session")
}
