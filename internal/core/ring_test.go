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

// TestRingOwnershipStableUnderRemove proves the shrink direction via
// SetLive: removing one shard of N moves only that shard's keys (~1/N),
// every key keeps mapping to exactly one live shard, and restoring the
// shard restores the original assignment bit-for-bit.
func TestRingOwnershipStableUnderRemove(t *testing.T) {
	const nKeys = 10000
	keys := ringKeys(nKeys)
	for _, n := range []int{2, 4, 8} {
		r := NewShardRing(n)
		orig := make([]int, nKeys)
		for i, k := range keys {
			orig[i] = r.Owner(k)
		}
		victim := n / 2
		r.SetLive(victim, false)
		if got := r.Live(); got != n-1 {
			t.Fatalf("Live() = %d after removal, want %d", got, n-1)
		}
		moved := 0
		for i, k := range keys {
			now := r.Owner(k)
			if now < 0 || now >= n || now == victim {
				t.Fatalf("n=%d: key %d owned by %d after removing shard %d", n, k, now, victim)
			}
			if orig[i] == victim {
				moved++
			} else if now != orig[i] {
				t.Fatalf("n=%d: key %d not owned by victim moved %d→%d", n, k, orig[i], now)
			}
		}
		frac := float64(moved) / nKeys
		want := 1.0 / float64(n)
		if frac < want/3 || frac > want*3 {
			t.Errorf("n=%d: victim owned fraction %.3f, want ~%.3f", n, frac, want)
		}
		// Re-adding restores the exact original assignment.
		r.SetLive(victim, true)
		for i, k := range keys {
			if got := r.Owner(k); got != orig[i] {
				t.Fatalf("n=%d: key %d owner %d after restore, want %d", n, k, got, orig[i])
			}
		}
	}
}

// TestRingFailoverAlwaysOneLiveOwner drives a rolling failure through
// every subset size: with any combination of dead shards (short of all
// dead), every key maps to exactly one live shard.
func TestRingFailoverAlwaysOneLiveOwner(t *testing.T) {
	const n = 4
	keys := ringKeys(2000)
	r := NewShardRing(n)
	// Kill shards one at a time, checking the invariant after each step.
	for kill := 0; kill < n-1; kill++ {
		r.SetLive(kill, false)
		for _, k := range keys {
			o := r.Owner(k)
			if o <= kill || o >= n {
				t.Fatalf("after killing 0..%d: key %d owned by %d", kill, k, o)
			}
		}
	}
	r.SetLive(n-1, false)
	if got := r.Owner(keys[0]); got != -1 {
		t.Fatalf("all shards dead: Owner = %d, want -1", got)
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
