package monitor

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"livesec/internal/flow"
	"livesec/internal/netpkt"
	"livesec/internal/slots/slotstest"
)

func TestRecordAssignsSequence(t *testing.T) {
	s := NewStore(0)
	e1 := s.Record(Event{Type: EventUserJoin, User: "02:00:00:00:00:01"})
	e2 := s.Record(Event{Type: EventUserLeave, User: "02:00:00:00:00:01"})
	if e1.Seq != 1 || e2.Seq != 2 {
		t.Fatalf("seqs = %d, %d", e1.Seq, e2.Seq)
	}
	if s.TotalRecorded() != 2 || s.Len() != 2 {
		t.Fatalf("totals: %d %d", s.TotalRecorded(), s.Len())
	}
}

func TestCapacityEviction(t *testing.T) {
	s := NewStore(10)
	for i := 0; i < 25; i++ {
		s.Record(Event{Type: EventFlowStart, At: time.Duration(i) * time.Millisecond})
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d, want 10", s.Len())
	}
	if s.TotalRecorded() != 25 {
		t.Fatalf("TotalRecorded = %d", s.TotalRecorded())
	}
	evs := s.Events(Filter{})
	if evs[0].Seq != 16 || evs[len(evs)-1].Seq != 25 {
		t.Fatalf("retained range %d..%d", evs[0].Seq, evs[len(evs)-1].Seq)
	}
}

func TestFilters(t *testing.T) {
	s := NewStore(0)
	s.Record(Event{Type: EventAttack, User: "u1", At: 10 * time.Millisecond})
	s.Record(Event{Type: EventProtocol, User: "u1", Detail: "http", At: 20 * time.Millisecond})
	s.Record(Event{Type: EventAttack, User: "u2", At: 30 * time.Millisecond})
	if got := s.Events(Filter{Type: EventAttack}); len(got) != 2 {
		t.Fatalf("type filter: %d", len(got))
	}
	if got := s.Events(Filter{User: "u1"}); len(got) != 2 {
		t.Fatalf("user filter: %d", len(got))
	}
	if got := s.Events(Filter{Since: 2}); len(got) != 1 || got[0].Seq != 3 {
		t.Fatalf("since filter: %+v", got)
	}
	if got := s.Events(Filter{From: 15 * time.Millisecond, To: 25 * time.Millisecond}); len(got) != 1 {
		t.Fatalf("window filter: %d", len(got))
	}
	if got := s.Events(Filter{Limit: 2}); len(got) != 2 {
		t.Fatalf("limit filter: %d", len(got))
	}
}

func TestReplayWindowOrdered(t *testing.T) {
	s := NewStore(0)
	for i := 0; i < 10; i++ {
		s.Record(Event{Type: EventFlowStart, At: time.Duration(i) * time.Second})
	}
	var seen []time.Duration
	s.Replay(2*time.Second, 5*time.Second, func(ev Event) bool {
		seen = append(seen, ev.At)
		return true
	})
	if len(seen) != 4 {
		t.Fatalf("replayed %d events, want 4", len(seen))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] < seen[i-1] {
			t.Fatal("replay out of order")
		}
	}
	// Early stop.
	n := 0
	s.Replay(0, 0, func(Event) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop replayed %d", n)
	}
}

func TestSubscribe(t *testing.T) {
	s := NewStore(0)
	var got []Event
	s.Subscribe(func(ev Event) { got = append(got, ev) })
	s.Record(Event{Type: EventAttack})
	if len(got) != 1 || got[0].Type != EventAttack {
		t.Fatalf("subscriber got %+v", got)
	}
}

func TestUserAppsAggregation(t *testing.T) {
	s := NewStore(0)
	s.Record(Event{Type: EventProtocol, User: "u1", Detail: "http"})
	s.Record(Event{Type: EventProtocol, User: "u1", Detail: "http"})
	s.Record(Event{Type: EventProtocol, User: "u1", Detail: "ssh"})
	s.Record(Event{Type: EventProtocol, User: "u2", Detail: "bittorrent"})
	apps := s.UserApps()
	if apps["u1"]["http"] != 2 || apps["u1"]["ssh"] != 1 || apps["u2"]["bittorrent"] != 1 {
		t.Fatalf("apps = %+v", apps)
	}
	// Returned map is a copy.
	apps["u1"]["http"] = 99
	if s.UserApps()["u1"]["http"] != 2 {
		t.Fatal("UserApps leaked internal state")
	}
}

// TestConcurrentAccess records past several wraps of the ring while
// other goroutines read it (run with -race).
func TestConcurrentAccess(t *testing.T) {
	s := NewStore(100)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Record(Event{Type: EventFlowStart})
				evs := s.Events(Filter{Since: s.TotalRecorded() - 20, Limit: 5})
				for j := 1; j < len(evs); j++ {
					if evs[j].Seq != evs[j-1].Seq+1 {
						t.Errorf("retained events not dense: seq %d after %d", evs[j].Seq, evs[j-1].Seq)
						return
					}
				}
				_ = s.Counts()
				_ = s.Len()
			}
		}()
	}
	wg.Wait()
	if s.TotalRecorded() != 2000 || s.Len() != 100 {
		t.Fatalf("TotalRecorded = %d, Len = %d", s.TotalRecorded(), s.Len())
	}
}

// sliceStore is the store as it was before the ring: a slice that slides
// every retained event down by one on each Record at capacity, and a full
// scan for every query. Kept as the oracle the ring is tested against.
type sliceStore struct {
	capacity int
	events   []Event
	seq      uint64
	counts   map[EventType]uint64
}

// Record names a keyed event's empty user from its key, as core once did
// where it recorded the event, and describes the flow, as the store once
// did; the ring does both when Events reads it, with the same result.
func (s *sliceStore) Record(ev Event) Event {
	s.seq++
	ev.Seq = s.seq
	if ev.FlowKey != nil {
		if ev.User == "" {
			ev.User = ev.FlowKey.EthSrc.String()
		}
		ev.FlowDesc = ev.FlowKey.String()
	}
	s.events = append(s.events, ev)
	if len(s.events) > s.capacity {
		drop := len(s.events) - s.capacity
		s.events = append(s.events[:0], s.events[drop:]...)
	}
	s.counts[ev.Type]++
	return ev
}

func (s *sliceStore) Events(f Filter) []Event {
	var out []Event
	for _, ev := range s.events {
		switch {
		case f.Type != "" && ev.Type != f.Type, ev.Seq <= f.Since, ev.At < f.From,
			f.To != 0 && ev.At > f.To, f.User != "" && ev.User != f.User:
			continue
		}
		out = append(out, ev)
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

// The oracle test's flow keys come from two source MACs; its events are
// recorded with no user, a name, or the first MAC, which its filters
// select along with the name.
var (
	oracleMACs  = []netpkt.MAC{netpkt.MACFromUint64(1), netpkt.MACFromUint64(2)}
	oracleUsers = []string{"", "u1", oracleMACs[0].String()}
)

// TestRingMatchesSliceOracle drives the ring and the oracle with the same
// random records, several wraps past every capacity from 1 to 64 and
// past capacities either side of one and two pages, and requires
// identical answers from every query. About half the events carry a
// flow key, some from the MAC the user filters name: queries return them
// named and described, subscriber deliveries are the oracle's without
// FlowDesc, and Record's return value is the event as recorded.
func TestRingMatchesSliceOracle(t *testing.T) {
	types := []EventType{EventFlowStart, EventAttack, EventProtocol}
	undescribed := func(ev Event) Event {
		ev.FlowDesc = ""
		return ev
	}
	var capacities []int
	for capacity := 1; capacity <= 64; capacity++ {
		capacities = append(capacities, capacity)
	}
	page := (32768 - 8) / int(unsafe.Sizeof(record{})) // the most events one page of the store's obs.Ring holds
	capacities = append(capacities, page-1, page, page+1, 2*page+7)
	for _, capacity := range capacities {
		rng := rand.New(rand.NewSource(int64(capacity)))
		ring := NewStore(capacity)
		oracle := &sliceStore{capacity: capacity, counts: make(map[EventType]uint64)}
		var delivered, want []Event
		ring.Subscribe(func(ev Event) { delivered = append(delivered, ev) })
		at := time.Duration(0)
		// Compare after every batch, from the empty store until the ring
		// has wrapped at least three times.
		for oracle.seq <= uint64(4*capacity) {
			for n := rng.Intn(2*capacity + 1); n > 0; n-- {
				at += time.Duration(rng.Intn(3)) * time.Millisecond
				ev := Event{At: at, Type: types[rng.Intn(len(types))], User: oracleUsers[rng.Intn(len(oracleUsers))],
					Detail: fmt.Sprint("d", rng.Intn(4))}
				if rng.Intn(2) == 0 {
					ev.FlowKey = &flow.Key{InPort: uint32(rng.Intn(4)), EthSrc: oracleMACs[rng.Intn(len(oracleMACs))],
						EthType: netpkt.EtherTypeIPv4, IPProto: netpkt.ProtoTCP, SrcPort: uint16(rng.Intn(65536)), DstPort: 80}
				}
				got, exp := ring.Record(ev), oracle.Record(ev)
				if ev.Seq = exp.Seq; got != ev {
					t.Fatalf("capacity %d: Record returned %+v, want the event as recorded %+v", capacity, got, ev)
				}
				want = append(want, undescribed(exp))
			}
			compareStores(t, rng, ring, oracle)
			if !reflect.DeepEqual(delivered, want) {
				t.Fatalf("capacity %d: subscriber saw %d events in a different order or shape than the %d recorded",
					capacity, len(delivered), len(want))
			}
		}
	}
}

func compareStores(t *testing.T, rng *rand.Rand, ring *Store, oracle *sliceStore) {
	t.Helper()
	if ring.Len() != len(oracle.events) || ring.TotalRecorded() != oracle.seq {
		t.Fatalf("capacity %d after %d records: Len %d, TotalRecorded %d; oracle %d, %d",
			oracle.capacity, oracle.seq, ring.Len(), ring.TotalRecorded(), len(oracle.events), oracle.seq)
	}
	if !reflect.DeepEqual(ring.Counts(), oracle.counts) {
		t.Fatalf("capacity %d: Counts %v, oracle %v", oracle.capacity, ring.Counts(), oracle.counts)
	}
	span := int(oracle.seq) + 3
	var last time.Duration
	if n := len(oracle.events); n > 0 {
		last = oracle.events[n-1].At
	}
	window := func() time.Duration { return time.Duration(rng.Int63n(int64(last) + 2)) }
	filters := []Filter{{}, {Limit: 1}, {Since: oracle.seq}, {Since: oracle.seq + 7}}
	for i := 0; i < 40; i++ {
		f := Filter{Since: uint64(rng.Intn(span))}
		if rng.Intn(2) == 0 {
			f.Type = EventAttack
		}
		if rng.Intn(2) == 0 {
			f.User = oracleUsers[1+rng.Intn(len(oracleUsers)-1)]
		}
		if rng.Intn(2) == 0 {
			f.From, f.To = window(), window()
		}
		if rng.Intn(2) == 0 {
			f.Limit = rng.Intn(oracle.capacity + 2)
		}
		if rng.Intn(4) == 0 {
			f.Since = 0
		}
		filters = append(filters, f)
	}
	for _, f := range filters {
		if got, want := ring.Events(f), oracle.Events(f); !reflect.DeepEqual(got, want) {
			t.Fatalf("capacity %d after %d records: Events(%+v) = %d events %+v, oracle %d events %+v",
				oracle.capacity, oracle.seq, f, len(got), got, len(want), want)
		}
		var replayed []Event
		ring.Replay(f.From, f.To, func(ev Event) bool { replayed = append(replayed, ev); return true })
		if want := oracle.Events(Filter{From: f.From, To: f.To}); !reflect.DeepEqual(replayed, want) {
			t.Fatalf("capacity %d: Replay(%v, %v) = %+v, oracle %+v", oracle.capacity, f.From, f.To, replayed, want)
		}
	}
}

// Record at capacity overwrites a slot in place: it may allocate no more
// than Record with room to grow does.
func TestRecordAtCapacityAllocs(t *testing.T) {
	ev := Event{Type: EventFlowStart, Switch: 1, User: "02:00:00:00:00:01", Detail: "route"}
	const runs = 1000
	cold := NewStore(4 * runs)
	withRoom := testing.AllocsPerRun(runs, func() { cold.Record(ev) })
	full := NewStore(64)
	for i := 0; i < 64; i++ {
		full.Record(ev)
	}
	atCapacity := testing.AllocsPerRun(runs, func() { full.Record(ev) })
	if atCapacity > withRoom {
		t.Fatalf("Record allocates %.2f per call at capacity, %.2f with room", atCapacity, withRoom)
	}
}

// flowStartEvent is a flow-start event as core records it: with the flow
// key, which the store describes only when the event is read, and no
// user, which reads name from the key.
func flowStartEvent() Event {
	return Event{Type: EventFlowStart, Switch: 1, FlowKey: &flow.Key{InPort: 1,
		EthSrc: netpkt.MACFromUint64(1), EthDst: netpkt.MACFromUint64(2), EthType: netpkt.EtherTypeIPv4,
		IPSrc: netpkt.IP(10, 1, 0, 1), IPDst: netpkt.IP(10, 2, 0, 1), IPProto: netpkt.ProtoTCP, SrcPort: 32768, DstPort: 80}}
}

// Recording a flow event at capacity allocates nothing: its description
// is made on read (TestRingMatchesSliceOracle checks what reads return).
func TestRecordFlowEventAllocs(t *testing.T) {
	ev := flowStartEvent()
	s := NewStore(64)
	for i := 0; i < 64; i++ {
		s.Record(ev)
	}
	if allocs := testing.AllocsPerRun(1000, func() { s.Record(ev) }); allocs != 0 {
		t.Fatalf("Record of a flow event at capacity allocates %v per call, want 0", allocs)
	}
}

// TestFlowEventRetention is the tripwire on what a flow event leaves
// behind in a full store: its 48-byte record, at most 56 bytes with its
// share of the ring's pages, heap and mapped together. Events are
// recorded as core records them, each with a fresh flow key and no user,
// all naming one attribute tuple; a store that kept the Event and the
// key it points to would retain 176 bytes (a 128-byte slot and a 48-byte
// key), one that kept the attributes in each record 120 (a 112-byte
// record), and one that kept the user in each record 72.
func TestFlowEventRetention(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation changes heap accounting")
	}
	if size := unsafe.Sizeof(record{}); size != 48 {
		t.Fatalf("a record is %d bytes, want 48", size)
	}
	const events = 16384
	tmpl := *flowStartEvent().FlowKey
	h0 := slotstest.Retained()
	s := NewStore(events)
	for i := range events {
		key := tmpl
		key.SrcPort = uint16(i)
		s.Record(Event{Type: EventFlowStart, Switch: 1, FlowKey: &key, Detail: "allow "})
	}
	perEvent := float64(slotstest.Retained()-h0) / events
	runtime.KeepAlive(s)
	if perEvent > 56 {
		t.Fatalf("a recorded flow event retains %.1f bytes, want at most 56", perEvent)
	}
	t.Logf("%.1f bytes retained per flow event", perEvent)
}

// TestUserEventRetention bounds what an event naming a user of its own
// leaves behind in a full store: its record and the user's share of a
// page of Store.users, at most 72 bytes heap and mapped, beyond the user
// string; the events share one attribute tuple. A store that saw no user
// makes no page of users.
func TestUserEventRetention(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation changes heap accounting")
	}
	const events = 16384
	users := make([]string, events)
	for i := range users {
		users[i] = netpkt.MACFromUint64(uint64(i)).String()
	}
	h0 := slotstest.Retained()
	s := NewStore(events)
	for _, u := range users {
		s.Record(Event{Type: EventUserJoin, Switch: 1, User: u})
	}
	perEvent := float64(slotstest.Retained()-h0) / events
	runtime.KeepAlive(s)
	runtime.KeepAlive(users)
	if n := s.attrs.pages.Len(); n != 1 {
		t.Fatalf("%d live tuples for events that differ only in their user, want 1", n)
	}
	if perEvent > 72 {
		t.Fatalf("an event with a user of its own retains %.1f bytes, want at most 72", perEvent)
	}
	t.Logf("%.1f bytes retained per event with a user", perEvent)
	flows := NewStore(events)
	for range events {
		flows.Record(flowStartEvent())
	}
	if flows.users != nil {
		t.Fatal("a store that recorded no user made pages of users")
	}
}

// tupleOf is the attribute tuple an event names, its reference count 0.
func tupleOf(s *Store, ev Event) attrs {
	return attrs{sw: ev.Switch, se: ev.SE, ip: ev.IP, detail: ev.Detail, severity: ev.Severity,
		hasKey: ev.FlowKey != nil, typ: s.typeID[ev.Type]}
}

// liveTuples returns the store's live attribute tuples and their
// reference counts.
func liveTuples(s *Store) map[attrs]uint32 {
	live := make(map[attrs]uint32)
	for _, pg := range s.attrs.pages.Pages() {
		for _, a := range pg {
			if a.refs > 0 {
				refs := a.refs
				a.refs = 0
				live[a] = refs
			}
		}
	}
	return live
}

// TestAttrTableBounded holds the attribute table to the records that
// name its tuples. At capacities 1, 7, 64 and one past a ring page, a
// store records three times its capacity of events, each with a detail
// of its own, beside the slice oracle: then and after every batch, the
// live tuples are exactly those of the oracle's retained events, each
// counted once per event naming it. One event repeated until it fills
// the ring leaves one tuple.
func TestAttrTableBounded(t *testing.T) {
	page := (32768 - 8) / int(unsafe.Sizeof(record{}))
	for _, capacity := range []int{1, 7, 64, page + 1} {
		s := NewStore(capacity)
		oracle := &sliceStore{capacity: capacity, counts: make(map[EventType]uint64)}
		types := []EventType{EventFlowStart, EventAttack}
		for i := range 3 * capacity {
			ev := Event{Type: types[i%2], Switch: uint64(i % 3), Detail: fmt.Sprint("d", i)}
			if i%2 == 0 {
				ev.FlowKey = flowStartEvent().FlowKey
			}
			s.Record(ev)
			oracle.Record(ev)
			if i%(capacity/3+1) != 0 && i != 3*capacity-1 {
				continue
			}
			want := make(map[attrs]uint32)
			for _, ev := range oracle.events {
				want[tupleOf(s, ev)]++
			}
			live := liveTuples(s)
			if len(live) > s.Len() || !reflect.DeepEqual(live, want) {
				t.Fatalf("capacity %d after %d records: %d live tuples for %d retained records, want the oracle's %d",
					capacity, i+1, len(live), s.Len(), len(want))
			}
			if n := s.attrs.pages.Len(); n != len(live) {
				t.Fatalf("capacity %d: the table counts %d live tuples, holds %d", capacity, n, len(live))
			}
		}
		ev := flowStartEvent()
		for range capacity {
			s.Record(ev)
		}
		if live := liveTuples(s); len(live) != 1 || live[tupleOf(s, ev)] != uint32(capacity) {
			t.Fatalf("capacity %d: a ring of one repeated event leaves tuples %v", capacity, live)
		}
		if n := s.attrs.index.Len(); n != 1 {
			t.Fatalf("capacity %d: the index files %d tuples, want 1", capacity, n)
		}
	}
}

// TestAttrTableRetention bounds a store whose every event names its own
// tuple: 16,384 retained events, the last third of 49,152 recorded, keep
// at most 144 bytes each, heap and mapped, beyond their detail strings —
// the 48-byte record, the 56-byte tuple and the tuple's share of the
// index.
func TestAttrTableRetention(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation changes heap accounting")
	}
	if size := unsafe.Sizeof(attrs{}); size != 56 {
		t.Fatalf("an attribute tuple is %d bytes, want 56", size)
	}
	const capacity = 16384
	details := make([]string, 3*capacity)
	for i := range details {
		details[i] = fmt.Sprintf("detail-%09d", i)
	}
	key := *flowStartEvent().FlowKey
	h0 := slotstest.Retained()
	s := NewStore(capacity)
	for _, d := range details {
		s.Record(Event{Type: EventFlowStart, Switch: 1, FlowKey: &key, Detail: d})
	}
	perEvent := float64(slotstest.Retained()-h0) / capacity
	runtime.KeepAlive(s)
	runtime.KeepAlive(details)
	if n := s.attrs.pages.Len(); n != capacity {
		t.Fatalf("%d live tuples for %d retained events of distinct details", n, capacity)
	}
	if perEvent > 144 {
		t.Fatalf("an event with a tuple of its own retains %.1f bytes, want at most 144", perEvent)
	}
	t.Logf("%.1f bytes retained per event", perEvent)
}

// benchEvents are distinct so that the recorded values are not one
// constant the compiler or the cache could make free.
var benchEvents = func() []Event {
	evs := make([]Event, 1024)
	for i := range evs {
		evs[i] = Event{At: time.Duration(i) * time.Microsecond, Type: EventFlowStart, Switch: 1,
			User: fmt.Sprintf("02:00:00:00:%02x:%02x", i>>8, i&0xff), Detail: "route"}
	}
	return evs
}()

// BenchmarkStoreRecordAtCapacity is Record on a store that already holds
// its 65,536 events — the state of any daemon up for more than a minute.
// Before the ring this moved 8 MB per call (≈400 µs).
func BenchmarkStoreRecordAtCapacity(b *testing.B) {
	s := NewStore(0)
	for i := 0; i < 65536; i++ {
		s.Record(benchEvents[i%len(benchEvents)])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Record(benchEvents[i%len(benchEvents)])
	}
}

// BenchmarkStoreRecordFlowEvent is Record of a flow-start event carrying
// its flow key, on a full store: what core pays per flow setup.
func BenchmarkStoreRecordFlowEvent(b *testing.B) {
	ev := flowStartEvent()
	s := NewStore(0)
	for i := 0; i < 65536; i++ {
		s.Record(ev)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Record(ev)
	}
}

// BenchmarkStoreRecordInterleaved is Record of flow events from 16
// switches in turn, on a full store: event i comes from switch 1+i%16
// under rule i%4, so each switch repeats its own tuple while its
// neighbours record theirs in between, as the switches of a campus do.
// A store that remembered only the last tuple hashed every event.
func BenchmarkStoreRecordInterleaved(b *testing.B) {
	const switches, details = 16, 4
	evs := make([]Event, switches)
	for i := range evs {
		evs[i] = flowStartEvent()
		evs[i].Switch = uint64(1 + i)
		evs[i].Detail = fmt.Sprint("allow rule-", i%details)
	}
	s := NewStore(0)
	for i := 0; i < 65536; i++ {
		s.Record(evs[i%switches])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Record(evs[i%switches])
	}
}

// BenchmarkStoreRecordDistinct is Record on a full store of events that
// each carry a detail of their own: every call misses the attribute
// table, files a new tuple and frees the one the overwritten record
// named.
func BenchmarkStoreRecordDistinct(b *testing.B) {
	details := make([]string, 1<<17)
	for i := range details {
		details[i] = fmt.Sprint("blocked by rule-", i)
	}
	s := NewStore(0)
	ev := Event{Type: EventFlowBlocked, Switch: 1}
	for i := 0; i < 65536; i++ {
		ev.Detail = details[i%len(details)]
		s.Record(ev)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Detail = details[(65536+i)%len(details)]
		s.Record(ev)
	}
}

// BenchmarkStoreRecordCold is Record on a store with room, allocating a
// page every 511 records; a fresh store every 65,536 records keeps it
// below capacity.
func BenchmarkStoreRecordCold(b *testing.B) {
	b.ReportAllocs()
	var s *Store
	for i := 0; i < b.N; i++ {
		if i%65536 == 0 {
			s = NewStore(0)
		}
		s.Record(benchEvents[i%len(benchEvents)])
	}
}

func TestHTTPAPI(t *testing.T) {
	s := NewStore(0)
	s.Record(Event{Type: EventAttack, User: "u1", Detail: "SQLi", At: 5 * time.Millisecond, Severity: 180})
	s.Record(Event{Type: EventProtocol, User: "u1", Detail: "http", At: 6 * time.Millisecond})
	h := NewAPIHandler(HandlerConfig{Store: s, Topology: func() any { return map[string]int{"switches": 3} }})
	srv := httptest.NewServer(h)
	defer srv.Close()

	getJSON := func(path string, out any) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}

	var events []Event
	getJSON("/events?type=attack", &events)
	if len(events) != 1 || events[0].Detail != "SQLi" {
		t.Fatalf("events = %+v", events)
	}
	var replay []Event
	getJSON("/replay?from_ms=0&to_ms=100", &replay)
	if len(replay) != 2 {
		t.Fatalf("replay = %+v", replay)
	}
	var stats map[string]uint64
	getJSON("/stats", &stats)
	if stats["attack"] != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	var apps map[string]map[string]uint64
	getJSON("/apps", &apps)
	if apps["u1"]["http"] != 1 {
		t.Fatalf("apps = %+v", apps)
	}
	var topo map[string]int
	getJSON("/topology", &topo)
	if topo["switches"] != 3 {
		t.Fatalf("topo = %+v", topo)
	}
	// Bad query params are rejected.
	resp, err := http.Get(srv.URL + "/events?since=notanumber")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad since: status %d", resp.StatusCode)
	}
}

func TestIndexPageServed(t *testing.T) {
	s := NewStore(0)
	srv := httptest.NewServer(NewAPIHandler(HandlerConfig{Store: s}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/html; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	body := make([]byte, 1024)
	n, _ := resp.Body.Read(body)
	if n == 0 || !strings.Contains(string(body[:n]), "LiveSec") {
		t.Fatal("dashboard body missing")
	}
	// Unknown paths are not swallowed by the index route.
	resp2, err := http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode == 200 {
		t.Fatal("unknown path served the index")
	}
}
