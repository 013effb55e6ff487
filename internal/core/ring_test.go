package core

import "testing"

// ringKeys returns nKeys synthetic host/switch keys. Sequential values
// are the adversarial case for a hash ring (real dpids are sequential
// too), so the properties below hold for exactly the keys the
// controller will feed it.
func ringKeys(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	return keys
}

// TestRingOwnershipStableUnderAdd proves the consistency property in the
// growth direction: going from N to N+1 shards moves roughly 1/(N+1) of
// the keys, and every moved key moves *to the new shard* — no key ever
// shuffles between pre-existing shards.
func TestRingOwnershipStableUnderAdd(t *testing.T) {
	const nKeys = 10000
	keys := ringKeys(nKeys)
	for _, n := range []int{2, 4, 8} {
		before := NewShardRing(n)
		after := NewShardRing(n + 1)
		moved := 0
		for _, k := range keys {
			a, b := before.Owner(k), after.Owner(k)
			if a == b {
				continue
			}
			moved++
			if b != n {
				t.Fatalf("shards %d→%d: key %d moved %d→%d, not to the new shard", n, n+1, k, a, b)
			}
		}
		frac := float64(moved) / nKeys
		want := 1.0 / float64(n+1)
		if frac < want/3 || frac > want*3 {
			t.Errorf("shards %d→%d: moved fraction %.3f, want ~%.3f", n, n+1, frac, want)
		}
	}
}

// TestRingBalance sanity-checks that virtual nodes spread sequential
// keys across shards without a grossly oversized shard.
func TestRingBalance(t *testing.T) {
	const nKeys = 10000
	keys := ringKeys(nKeys)
	for _, n := range []int{2, 4, 8} {
		r := NewShardRing(n)
		counts := make([]int, n)
		for _, k := range keys {
			counts[r.Owner(k)]++
		}
		even := nKeys / n
		for s, got := range counts {
			if got < even/3 || got > even*3 {
				t.Errorf("n=%d: shard %d owns %d keys, want ~%d", n, s, got, even)
			}
		}
	}
}

// TestRingDeterministic: two rings with identical parameters agree on
// every key (the shard layer depends on this across runs and worker
// counts).
func TestRingDeterministic(t *testing.T) {
	a := NewShardRing(4)
	b := NewShardRing(4)
	for _, k := range ringKeys(1000) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("rings disagree on key %d", k)
		}
	}
}
