package core

// Consistent-hash ownership ring for the sharded control plane
// (shard.go). Switches — and through their ingress switch, hosts and
// flows — are assigned to controller shards by hashing the switch
// datapath id onto a ring of virtual nodes. The properties the shard
// layer relies on:
//
//   - Stability: adding a shard moves only ~1/N of the key space, and
//     only onto the new shard (ring_test.go).
//   - Exactly-one owner: Owner is the shard of the first point at or
//     after hash(key), wrapping.
//   - Determinism: the ring is pure arithmetic on splitmix64 hashes; the
//     same shard count always produces the same assignment, on every
//     run.
//
// The assignment never changes at run time: a failover (KillShard) keeps
// the dead shard's ring slots — its hot standby inherits the shard id.

import "sort"

// shardVnodes is the virtual-node count per shard. 64 points per
// shard keeps the maximum ownership imbalance under ~20% for small N
// while the ring stays tiny (N·64 points).
const shardVnodes = 64

// ringNodeSalt keys the virtual-node hash domain (see NewShardRing).
const ringNodeSalt = 0x5bd1e995c2b2ae35

// splitmix64 is the 64-bit finalizer of the splitmix64 generator: a
// cheap, well-mixed, allocation-free hash for ring points and keys.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ringPoint is one virtual node: a position on the ring owned by a
// shard.
type ringPoint struct {
	hash  uint64
	shard int
}

// ShardRing maps uint64 keys (switch dpids) to shard ids by consistent
// hashing.
type ShardRing struct {
	points []ringPoint // sorted by hash
}

// NewShardRing builds a ring of `shards` shards with shardVnodes
// virtual nodes each. A given shard's virtual nodes depend only on
// (shard, vnode), so growing the ring from N to N+1 shards adds points
// without moving any existing one — the consistency property.
func NewShardRing(shards int) *ShardRing {
	if shards < 1 {
		shards = 1
	}
	r := &ShardRing{points: make([]ringPoint, 0, shards*shardVnodes)}
	for s := 0; s < shards; s++ {
		for v := 0; v < shardVnodes; v++ {
			// The salt separates the node-hash domain from the key-hash
			// domain: without it, shard 0's vnode inputs are the raw values
			// 0..shardVnodes-1 and collide exactly with small dpid keys, pinning
			// every low dpid onto shard 0.
			r.points = append(r.points, ringPoint{
				hash:  splitmix64(ringNodeSalt ^ (uint64(s)<<32 | uint64(v))),
				shard: s,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.shard < b.shard // total order even on hash collisions
	})
	return r
}

// Owner returns the shard owning key: the shard of the first point at
// or after hash(key) on the ring, wrapping.
func (r *ShardRing) Owner(key uint64) int {
	h := splitmix64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	return r.points[i%len(r.points)].shard
}
