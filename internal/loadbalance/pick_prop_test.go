package loadbalance

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"livesec/internal/flow"
)

var (
	allAlgorithms = []Algorithm{RoundRobin, HashDispatch, ShortestQueue, LeastLoad, RandomDispatch}
	allGrains     = []Grain{FlowGrain, UserGrain}
)

// referencePick is Pick as it was before the ordered-input fast path:
// always copy, always sort by ID (reflection-based sort.Slice and all),
// then dispatch. It shares pick and the balancer's state fields with the
// production path, so the property below isolates the one thing that
// changed — how the candidate order is established.
func referencePick(b *Balancer, cands []Candidate, key flow.Key) (uint64, bool) {
	if len(cands) == 0 {
		return 0, false
	}
	sorted := make([]Candidate, len(cands))
	copy(sorted, cands)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	if b.Grain == UserGrain {
		user := key.EthSrc
		if id, ok := b.userPins[user]; ok && containsID(sorted, id) {
			b.Assigned[id]++
			return id, true
		}
		id := b.pick(sorted, key)
		b.userPins[user] = id
		b.Assigned[id]++
		return id, true
	}
	id := b.pick(sorted, key)
	b.Assigned[id]++
	return id, true
}

// randCands draws a candidate set with distinct IDs from a sparse range
// (elements come and go, so pools have gaps) and colliding loads and
// queue depths, so minimum ties — broken on lowest ID — are common.
func randCands(rng *rand.Rand) []Candidate {
	ids := rng.Perm(40)[:rng.Intn(12)]
	sort.Ints(ids)
	out := make([]Candidate, len(ids))
	for i, id := range ids {
		out[i] = Candidate{ID: uint64(id + 1), Load: uint64(rng.Intn(4)), QueueLen: uint32(rng.Intn(3))}
	}
	return out
}

// TestPickMatchesReference: for every algorithm × grain, a sequence of
// picks over ordered and shuffled candidate slices returns exactly what
// the copy-and-sort reference returns — including the state that carries
// across picks (round-robin cursor, RNG stream, user pins, Assigned) —
// and never reorders the caller's slice.
func TestPickMatchesReference(t *testing.T) {
	for _, algo := range allAlgorithms {
		for _, grain := range allGrains {
			t.Run(fmt.Sprintf("%s/grain=%d", algo, grain), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(algo)*10 + int64(grain)))
				got, want := New(algo, grain, 99), New(algo, grain, 99)
				for i := 0; i < 2000; i++ {
					cands := randCands(rng)
					if i%2 == 1 {
						rng.Shuffle(len(cands), func(a, b int) { cands[a], cands[b] = cands[b], cands[a] })
					}
					before := append([]Candidate(nil), cands...)
					key := keyFor(uint64(rng.Intn(6)), uint16(rng.Intn(60000)))
					gotID, gotOK := got.Pick(cands, key)
					wantID, wantOK := referencePick(want, before, key)
					if gotID != wantID || gotOK != wantOK {
						t.Fatalf("pick %d over %v: got %d,%v want %d,%v", i, before, gotID, gotOK, wantID, wantOK)
					}
					for j := range cands {
						if cands[j] != before[j] {
							t.Fatalf("pick %d reordered the caller's slice: %v -> %v", i, before, cands)
						}
					}
				}
				if fmt.Sprint(got.Assigned) != fmt.Sprint(want.Assigned) || got.rr != want.rr ||
					fmt.Sprint(got.userPins) != fmt.Sprint(want.userPins) || got.rng.Int63() != want.rng.Int63() {
					t.Fatal("balancer state diverged from the reference")
				}
			})
		}
	}
}

// TestPickOrderedZeroAllocs is the tripwire for the per-setup pick: on
// ID-ordered input — the only kind the controller supplies — no
// algorithm or grain allocates.
func TestPickOrderedZeroAllocs(t *testing.T) {
	pool := cands(160)
	for i := range pool {
		pool[i].Load = uint64(i * 7 % 160)
	}
	key := keyFor(3, 40000)
	for _, algo := range allAlgorithms {
		for _, grain := range allGrains {
			b := New(algo, grain, 1)
			if allocs := testing.AllocsPerRun(100, func() { b.Pick(pool, key) }); allocs != 0 {
				t.Errorf("%s grain=%d: Pick allocs/run = %v on ordered input, want 0", algo, grain, allocs)
			}
		}
	}
}
