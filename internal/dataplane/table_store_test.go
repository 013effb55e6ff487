package dataplane

import (
	"fmt"
	"hash/maphash"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"livesec/internal/flow"
	"livesec/internal/netpkt"
	"livesec/internal/openflow"
	"livesec/internal/slots"
	"livesec/internal/slots/slotstest"
)

// The table's properties hold when every exact key hashes alike, so that
// all exact entries of a table share one home word and file in one probe
// run (slots' TestIndexCollidingTagsOneRun): lookups, adds, replacements,
// backward-shift deletions and expiry then all pass through the collision
// path.
func TestPropertiesUnderCollidingHash(t *testing.T) {
	saved := slots.KeyHash
	slots.KeyHash = func(maphash.Seed, flow.Key) uint64 { return 7 }
	t.Cleanup(func() { slots.KeyHash = saved })

	tbl := NewFlowTable()
	for i := 0; i < 20; i++ {
		tbl.Add(Entry{Match: flow.ExactMatch(exactKey(uint16(i)))}, 0)
	}
	tbl.Delete(flow.ExactMatch(exactKey(3)), 0, true)
	if tbl.keyTag(exactKey(1)) != tbl.keyTag(exactKey(2)) || tbl.Len() != 19 {
		t.Fatalf("constant hash: %d entries, distinct keys under distinct tags; want 19 under one", tbl.Len())
	}
	t.Run("IndexedLookupMatchesLinear", TestPropertyIndexedLookupMatchesLinear)
	t.Run("ExpireExact", TestPropertyExpireExact)
	t.Run("ExpireMatchesWalk", TestPropertyExpireMatchesWalk)
	t.Run("DeleteMatchesSubsumption", TestPropertyDeleteMatchesSubsumption)
	t.Run("MicroflowCacheMatchesTable", TestPropertyMicroflowCacheMatchesTable)
	t.Run("ExactEntriesMatchModel", TestPropertyExactEntriesMatchModel)
	t.Run("SharedActionsBounded", TestSharedActionsBounded)
}

// Property: under random adds, replacements, strict deletes and expiry of
// exact entries, the table holds exactly the entries a plain map of the
// live ones holds — none lost from the middle of a probe run, none left
// behind — through every compaction.
func TestPropertyExactEntriesMatchModel(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	tbl := NewFlowTable()
	model := map[flow.Key]Entry{}
	now := time.Duration(0)
	for step := 0; step < 4000; step++ {
		k := exactKey(uint16(r.Intn(40)))
		switch op := r.Intn(8); {
		case op < 2:
			tbl.Delete(flow.ExactMatch(k), 10, true)
			delete(model, k)
		case op == 2: // expire the entries with a hard timeout
			now += 2 * time.Second
			tbl.Expire(now)
			for k, e := range model {
				if e.HardTimeout > 0 {
					delete(model, k)
				}
			}
		default:
			e := Entry{Match: flow.ExactMatch(k), Priority: 10, Cookie: uint64(step), HardTimeout: uint16(r.Intn(4) / 3)}
			tbl.Add(e, now)
			model[k] = e
		}
		if tbl.Len() != len(model) || len(tbl.Entries()) != len(model) {
			t.Fatalf("step %d: Len %d, Entries %d, want %d", step, tbl.Len(), len(tbl.Entries()), len(model))
		}
		for k, e := range model {
			if got, ok := tbl.Lookup(k); !sameEntry(got, ok, e, true) {
				t.Fatalf("step %d: Lookup(%v) = %+v, want %+v", step, k, got, e)
			}
		}
	}
}

// controllerActions is the action list the controller installs on an
// access switch for a steered flow, freshly allocated per entry as the
// OpenFlow decoder allocates it per FLOW_MOD.
func controllerActions(i int) []openflow.Action {
	return []openflow.Action{
		openflow.ActionSetDLDst{MAC: netpkt.MACFromUint64(0xE0 + uint64(i%32))},
		openflow.ActionOutput{Port: uint32(1 + i%8)},
	}
}

// hasPointers reports whether values of typ hold a pointer the garbage
// collector must scan.
func hasPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Array:
		return hasPointers(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if hasPointers(typ.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func,
		reflect.Interface, reflect.String, reflect.UnsafePointer:
		return true
	}
	return false
}

// footprint is the bytes t holds in exact slots and the exact index.
func footprint(t *FlowTable) int {
	n := t.exact.Bytes()
	for _, pg := range t.pages.Pages() {
		n += cap(pg) * int(unsafe.Sizeof(slot{}))
	}
	return n
}

// controllerTable adds n controller-shaped exact entries to a new table.
func controllerTable(n int, hard func(i int) uint16) *FlowTable {
	tbl := NewFlowTable()
	for i := 0; i < n; i++ {
		k := exactKey(uint16(i))
		k.IPSrc = netpkt.IP(10, 1, byte(i>>16), byte(i>>8))
		tbl.Add(Entry{Match: flow.ExactMatch(k), Priority: 10, Actions: controllerActions(i), HardTimeout: hard(i)}, 0)
	}
	return tbl
}

// An exact entry is a slot of at most 96 bytes that holds no pointer, and
// costs at most 112 bytes all told, heap and mapped slabs together: the
// slot, its share of the index and no action list of its own. A table of 16 entries holds at most 4 KB
// of slots and index.
func TestExactEntryFootprint(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got > 96 {
		t.Errorf("slot is %d bytes, want at most 96", got)
	}
	if hasPointers(reflect.TypeOf(slot{})) {
		t.Error("slot holds a pointer")
	}
	small := controllerTable(16, func(int) uint16 { return 0 })
	if got := footprint(small); got > 4<<10 {
		t.Errorf("16 entries hold %d bytes of slots and index, want at most 4 KB", got)
	}
	const n = 100_000
	before := slotstest.Retained()
	tbl := controllerTable(n, func(int) uint16 { return 0 })
	perEntry := float64(slotstest.Retained()-before) / n
	runtime.KeepAlive(tbl)
	if perEntry > 112 {
		t.Fatalf("%.1f bytes per exact entry, want at most 112", perEntry)
	}
	t.Logf("%.1f bytes per exact entry", perEntry)
}

// A table grown to 100,000 entries and expired down to a few hundred
// compacts its store, in seq order, and keeps at most 256 KB. Slots freed
// early and refilled by later entries put slot order out of seq order
// before the compaction.
func TestDrainedTableCompacts(t *testing.T) {
	const n, kept = 100_000, 100
	before := slotstest.Retained()
	tbl := controllerTable(n, func(i int) uint16 {
		if i%(n/kept) == 0 {
			return 0
		}
		return 1
	})
	for _, e := range tbl.Entries()[:kept] {
		tbl.Delete(e.Match, e.Priority, true)
	}
	for i := 0; i < kept; i++ {
		k := exactKey(uint16(i))
		k.IPSrc = netpkt.IP(10, 2, 0, byte(i))
		tbl.Add(Entry{Match: flow.ExactMatch(k), Priority: 10}, 0)
	}
	due := 0
	for _, e := range tbl.Entries() {
		if e.HardTimeout > 0 {
			due++
		}
	}
	if got := len(tbl.Expire(2 * time.Second)); got != due || tbl.Len() != 2*kept-1 {
		t.Fatalf("expired %d of %d due, %d left; want all due expired and %d left", got, due, tbl.Len(), 2*kept-1)
	}
	retained := slotstest.Retained() - before
	if retained > 256<<10 {
		t.Errorf("the drained table retains %d bytes, want at most 256 KB", retained)
	}
	t.Logf("the drained table retains %d bytes", retained)
	var last uint64
	for p, pg := range tbl.pages.Pages() {
		for i := range pg {
			if s := &pg[i]; s.flags&slotLive == 0 || (p|i != 0 && s.seq <= last) {
				t.Fatalf("slot %d: live %v, seq %d after %d: the store is not compacted in seq order", p*slots.PageSlots+i, s.flags&slotLive != 0, s.seq, last)
			}
			last = pg[i].seq
		}
	}
	for _, e := range tbl.Entries() {
		if got, ok := tbl.Lookup(e.Match.Key); !sameEntry(got, ok, e, true) {
			t.Fatalf("after compaction Lookup(%v) = %+v, want %+v", e.Match.Key, got, e)
		}
	}
}

// Action lists are counted by the entries that name them: through at
// least 10,000 distinct lists pushed by adds, replacements, deletes and
// expiry, the table holds exactly the distinct lists its live entries
// name, each once, and entries with equal lists share it.
func TestSharedActionsBounded(t *testing.T) {
	steer := func(i int) []openflow.Action {
		return []openflow.Action{openflow.ActionSetDLDst{MAC: netpkt.MACFromUint64(uint64(i))}, openflow.ActionOutput{Port: 2}}
	}
	r := rand.New(rand.NewSource(9))
	tbl := NewFlowTable()
	pushed := map[int]bool{}
	now := time.Duration(0)
	check := func(step int) {
		named := map[string]int{}
		for _, e := range tbl.Entries() {
			named[fmt.Sprint(e.Actions)]++
		}
		delete(named, fmt.Sprint([]openflow.Action(nil)))
		live := 0
		for id, l := range tbl.acts.lists {
			if l != nil {
				live++
				if c := named[fmt.Sprint(l)]; uint32(c) != tbl.acts.refs[id] {
					t.Fatalf("step %d: list %v counted %d times, named by %d entries", step, l, tbl.acts.refs[id], c)
				}
			}
		}
		if live != len(named) || tbl.acts.index.Len() != live {
			t.Fatalf("step %d: %d lists held, %d indexed, live entries name %d", step, live, tbl.acts.index.Len(), len(named))
		}
	}
	for step := 0; step < 40_000; step++ {
		m := flow.ExactMatch(exactKey(uint16(r.Intn(2000))))
		if r.Intn(5) == 0 {
			m.Wildcards = flow.WildAll &^ flow.WildSrcPort
		}
		switch op := r.Intn(8); {
		case op < 5: // an add or a replacement, with a new list or a common one
			list := step
			if r.Intn(3) == 0 {
				list = r.Intn(16)
			}
			pushed[list] = true
			tbl.Add(Entry{Match: m, Priority: uint16(r.Intn(2)), Actions: steer(list), HardTimeout: uint16(r.Intn(3))}, now)
		case op == 5:
			tbl.Delete(m, uint16(r.Intn(2)), r.Intn(2) == 0)
		default:
			now += time.Second
			tbl.Expire(now)
		}
		if step%1000 == 0 {
			check(step)
		}
	}
	check(-1)
	if len(pushed) < 10_000 {
		t.Fatalf("pushed %d distinct lists, want at least 10,000", len(pushed))
	}
	tbl.Add(Entry{Match: flow.ExactMatch(exactKey(9001)), Actions: steer(1)}, now)
	tbl.Add(Entry{Match: flow.ExactMatch(exactKey(9002)), Actions: steer(1)}, now)
	x, _ := tbl.Lookup(exactKey(9001))
	y, _ := tbl.Lookup(exactKey(9002))
	if &x.Actions[0] != &y.Actions[0] {
		t.Fatal("entries with equal action lists do not share one")
	}
	tbl.Delete(flow.MatchAll(), 0, false)
	if live := len(tbl.acts.lists) - 1 - len(tbl.acts.free); live != 0 || tbl.Len() != 0 {
		t.Fatalf("an emptied table holds %d lists", live)
	}
}
