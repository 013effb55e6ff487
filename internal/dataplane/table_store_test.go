package dataplane

import (
	"hash/maphash"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"livesec/internal/flow"
	"livesec/internal/netpkt"
	"livesec/internal/openflow"
)

// The table's properties hold when every exact key hashes alike, so that
// all exact entries of a table share one chain: lookups, replacements,
// deletions and expiry then run through the collision path throughout.
func TestPropertiesUnderCollidingHash(t *testing.T) {
	saved := keyHash
	keyHash = func(maphash.Seed, flow.Key) uint64 { return 7 }
	t.Cleanup(func() { keyHash = saved })

	tbl := NewFlowTable()
	for i := 0; i < 3; i++ {
		tbl.Add(&Entry{Match: flow.ExactMatch(exactKey(uint16(i)))}, 0)
	}
	if len(tbl.exact) != 1 || tbl.Len() != 3 {
		t.Fatalf("constant hash: %d chains for %d entries, want 1 for 3", len(tbl.exact), tbl.Len())
	}
	t.Run("IndexedLookupMatchesLinear", TestPropertyIndexedLookupMatchesLinear)
	t.Run("ExpireExact", TestPropertyExpireExact)
	t.Run("ExpireMatchesWalk", TestPropertyExpireMatchesWalk)
	t.Run("DeleteMatchesSubsumption", TestPropertyDeleteMatchesSubsumption)
	t.Run("MicroflowCacheMatchesTable", TestPropertyMicroflowCacheMatchesTable)
	t.Run("ExactEntriesMatchModel", TestPropertyExactEntriesMatchModel)
}

// Property: under random adds, replacements and strict deletes of exact
// entries, the table holds exactly the entries a plain map of the live
// ones holds — none lost from the middle of a chain, none left behind.
func TestPropertyExactEntriesMatchModel(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	tbl := NewFlowTable()
	model := map[flow.Key]*Entry{}
	for step := 0; step < 2000; step++ {
		k := exactKey(uint16(r.Intn(40)))
		if r.Intn(4) == 0 {
			tbl.Delete(flow.ExactMatch(k), 10, true)
			delete(model, k)
		} else {
			e := &Entry{Match: flow.ExactMatch(k), Priority: 10}
			tbl.Add(e, 0)
			model[k] = e
		}
		if tbl.Len() != len(model) || len(tbl.Entries()) != len(model) {
			t.Fatalf("step %d: Len %d, Entries %d, want %d", step, tbl.Len(), len(tbl.Entries()), len(model))
		}
		for k, e := range model {
			if tbl.Lookup(k) != e {
				t.Fatalf("step %d: Lookup(%v) lost its entry", step, k)
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

// An exact entry costs at most 160 heap bytes all told: the 128-byte
// Entry, its share of the index and no action list of its own.
func TestExactEntryFootprint(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got != 128 {
		t.Errorf("Entry is %d bytes, want 128", got)
	}
	const n = 100_000
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	tbl := NewFlowTable()
	for i := 0; i < n; i++ {
		k := exactKey(uint16(i))
		k.IPSrc = netpkt.IP(10, 1, byte(i>>16), byte(i>>8))
		tbl.Add(&Entry{Match: flow.ExactMatch(k), Priority: 10, Actions: controllerActions(i)}, 0)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	perEntry := float64(int64(ms.HeapAlloc)-int64(before)) / n
	runtime.KeepAlive(tbl)
	if perEntry > 160 {
		t.Fatalf("%.1f heap bytes per exact entry, want at most 160", perEntry)
	}
	t.Logf("%.1f heap bytes per exact entry", perEntry)
}

// Past sharedActionsLimit distinct lists the table forgets its shared
// ones: it never holds more than the bound, every entry keeps its own
// actions, and equal lists added after the reset are shared again.
func TestSharedActionsBounded(t *testing.T) {
	steer := func(i int) []openflow.Action {
		return []openflow.Action{openflow.ActionSetDLDst{MAC: netpkt.MACFromUint64(uint64(i))}, openflow.ActionOutput{Port: 2}}
	}
	tbl := NewFlowTable()
	add := func(port, list int) *Entry {
		e := &Entry{Match: flow.ExactMatch(exactKey(uint16(port))), Priority: 10, Actions: steer(list)}
		tbl.Add(e, 0)
		return e
	}
	n := sharedActionsLimit + sharedActionsLimit/2
	entries := make([]*Entry, n)
	for i := range entries {
		entries[i] = add(i, i)
		if len(tbl.actions) > sharedActionsLimit {
			t.Fatalf("after %d adds the table holds %d shared lists, bound %d", i+1, len(tbl.actions), sharedActionsLimit)
		}
	}
	for i, e := range entries {
		if got := tbl.Lookup(e.Match.Key); got != e || !slices.Equal(got.Actions, steer(i)) {
			t.Fatalf("entry %d: Lookup = %v with actions %v, want its own %v", i, got, got.Actions, steer(i))
		}
	}
	// List 0 was forgotten at the reset, list n-1 was remembered after it.
	for _, i := range []int{0, n - 1} {
		again, twice := add(n+i, i), add(2*n+i, i)
		if &again.Actions[0] != &twice.Actions[0] {
			t.Fatalf("list %d: equal lists added after the reset are not shared", i)
		}
	}
	if &entries[n-1].Actions[0] != &tbl.Lookup(exactKey(uint16(2*n - 1))).Actions[0] {
		t.Fatal("a list remembered since the reset was not shared with a later equal one")
	}
}
