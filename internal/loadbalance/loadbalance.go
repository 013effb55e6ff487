// Package loadbalance implements the distributed load balancing of §IV.B:
// the controller picks a service element per flow or per user using one
// of the paper's dispatch algorithms — polling (round robin), hash,
// queuing (shortest queue), or minimum load — so that security workload
// spreads across elements and aggregate throughput scales linearly with
// the element count.
package loadbalance

import (
	"cmp"
	"hash/fnv"
	"math/rand"
	"slices"

	"livesec/internal/flow"
	"livesec/internal/netpkt"
)

// Algorithm selects the dispatch method (§IV.B lists polling, hash,
// queuing and minimum-load).
type Algorithm int

// Dispatch algorithms.
const (
	RoundRobin Algorithm = iota + 1 // "polling"
	HashDispatch
	ShortestQueue // "queuing"
	LeastLoad     // "minimum-load method" (the deployed default, §V.B.2)
	RandomDispatch
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case RoundRobin:
		return "round-robin"
	case HashDispatch:
		return "hash"
	case ShortestQueue:
		return "shortest-queue"
	case LeastLoad:
		return "least-load"
	case RandomDispatch:
		return "random"
	default:
		return "unknown"
	}
}

// Grain selects assignment granularity (§IV.B: flow-grain for few users
// with heavy traffic, user-grain for many users).
type Grain int

// Granularities.
const (
	FlowGrain Grain = iota + 1
	UserGrain
)

// Candidate is one service element eligible for a flow, with the load
// snapshot from its latest ONLINE report.
type Candidate struct {
	ID       uint64
	Load     uint64 // cumulative processed packets (the paper's load judge)
	PPS      uint32
	QueueLen uint32
	Capacity uint64
}

// Balancer assigns service elements to flows. It is deterministic for a
// given seed, which keeps simulations reproducible.
type Balancer struct {
	Algorithm Algorithm
	Grain     Grain

	rr       uint64
	rng      *rand.Rand
	userPins map[netpkt.MAC]uint64
	// Assigned counts decisions made, per element.
	Assigned map[uint64]uint64
}

// New creates a balancer.
func New(algo Algorithm, grain Grain, seed int64) *Balancer {
	return &Balancer{
		Algorithm: algo,
		Grain:     grain,
		rng:       rand.New(rand.NewSource(seed)),
		userPins:  make(map[netpkt.MAC]uint64),
		Assigned:  make(map[uint64]uint64),
	}
}

// Pick chooses a service element for the flow identified by key. It
// returns false when no candidates exist. Candidates may arrive in any
// order; ties break on the lowest ID so results are stable. Input
// already in ascending ID order — what the controller's element index
// supplies on every flow setup — is used as is, without allocating; any
// other order is copied and sorted first. cands is never modified or
// retained.
func (b *Balancer) Pick(cands []Candidate, key flow.Key) (uint64, bool) {
	if len(cands) == 0 {
		return 0, false
	}
	sorted := cands
	if !slices.IsSortedFunc(sorted, byID) {
		sorted = slices.Clone(cands)
		slices.SortFunc(sorted, byID)
	}

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

// byID is the candidate order every dispatch algorithm indexes into.
func byID(a, b Candidate) int { return cmp.Compare(a.ID, b.ID) }

func containsID(cands []Candidate, id uint64) bool {
	for _, c := range cands {
		if c.ID == id {
			return true
		}
	}
	return false
}

func (b *Balancer) pick(sorted []Candidate, key flow.Key) uint64 {
	switch b.Algorithm {
	case HashDispatch:
		return sorted[hashKey(key)%uint64(len(sorted))].ID
	case ShortestQueue:
		best := sorted[0]
		for _, c := range sorted[1:] {
			if c.QueueLen < best.QueueLen {
				best = c
			}
		}
		return best.ID
	case LeastLoad:
		best := sorted[0]
		for _, c := range sorted[1:] {
			if c.Load < best.Load {
				best = c
			}
		}
		return best.ID
	case RandomDispatch:
		return sorted[b.rng.Intn(len(sorted))].ID
	default: // RoundRobin
		id := sorted[b.rr%uint64(len(sorted))].ID
		b.rr++
		return id
	}
}

// Forget drops a user's sticky assignment (e.g., when the user leaves or
// its pinned element goes offline).
func (b *Balancer) Forget(user netpkt.MAC) { delete(b.userPins, user) }

// Pinned returns the number of users holding a sticky assignment.
func (b *Balancer) Pinned() int { return len(b.userPins) }

// hashKey hashes the flow 5-tuple; both directions of a session land on
// the same element so stateful engines see full conversations.
func hashKey(k flow.Key) uint64 {
	h := fnv.New64a()
	a, b := k.IPSrc, k.IPDst
	ap, bp := k.SrcPort, k.DstPort
	if a.Uint32() > b.Uint32() || (a == b && ap > bp) {
		a, b = b, a
		ap, bp = bp, ap
	}
	h.Write(a[:])
	h.Write(b[:])
	h.Write([]byte{byte(ap >> 8), byte(ap), byte(bp >> 8), byte(bp), byte(k.IPProto)})
	return h.Sum64()
}

// Deviation computes the relative load imbalance of a set of counters:
// max|x_i − mean| / mean. The paper reports ≤5% for minimum-load
// dispatch under normal traffic (§V.B.2).
func Deviation(loads []uint64) float64 {
	if len(loads) == 0 {
		return 0
	}
	var sum float64
	for _, v := range loads {
		sum += float64(v)
	}
	mean := sum / float64(len(loads))
	if mean == 0 {
		return 0
	}
	var worst float64
	for _, v := range loads {
		d := float64(v) - mean
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst / mean
}
