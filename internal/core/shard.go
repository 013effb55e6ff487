package core

// Sharded multi-controller control plane. One process still hosts the
// whole control plane, but it is split into N logical *shards*, each
// conceptually its own controller event loop with a hot standby:
//
//   - Ownership: every switch belongs to exactly one shard, by
//     consistent-hashing its datapath id onto a ShardRing (ring.go).
//     Hosts and flows inherit the shard of their ingress switch, so
//     "host → shard" ownership is stable under everything except
//     mobility across a shard boundary.
//   - Replicated view: shards share the topology/host/SE tables in
//     lock-step — every time the owning shard learns a fact, the model
//     charges one replication message to each peer (shardReplicate).
//     Because the replica equals the authoritative state at every
//     virtual instant, routing decisions are shard-invariant: the same
//     flow produces the same plan no matter which shard decides. That
//     is the invariant that keeps results identical at any shard
//     count.
//   - Cross-shard flow setup: the ingress switch's shard owns the
//     decision; flow-mod batches destined to switches owned by peer
//     shards are cross-shard installs (shardFlush). With
//     Config.ShardCoordLatency > 0 those batches travel as coordination
//     messages, each tagged with a (time, shard, seq) triple and merged
//     by the engine in canonical order — the peer installs its segment
//     (and answers the setup's barrier) on arrival, so with
//     Config.UseBarriers the first packet still cannot overtake its
//     entries. At the default 0 the batches flush inline and only the
//     accounting differs from the unsharded controller.
//   - Shard lanes (Config.ShardLanes): each shard serializes its
//     packet-ins on its own busy clock of PacketInCost per packet-in —
//     N shards process N packet-ins concurrently in virtual time where
//     the single-FIFO model (overload.go) processes one. This is the
//     scale-out being measured by the E10 experiment; it changes
//     timing. Lanes model the sharded ingress themselves and are
//     ignored under OverloadProtection (the defended pipeline owns
//     ingress).
//   - Failover: KillShard (shard_failover.go) marks a shard's event
//     loop dead; its switches' messages queue until the hot standby
//     takes over ShardFailoverDelay later, replaying the PR2 shadow
//     flow tables of every owned switch and draining the queue in
//     arrival order. Ownership never changes — the standby inherits
//     the shard id — so no flows move; the outage window is accounted
//     as policy-violation time.
//
// Every knob defaults off. With Config.Shards alone the layer only
// attributes work to shards (ownership, cross-shard and replication
// counters); the message streams are untouched, which
// experiments.TestKnobsNeutral enforces over the standard suite.

import (
	"time"

	"livesec/internal/obs"
	"livesec/internal/openflow"
)

// defaultShardFailoverDelay is the hot-standby takeover delay: long
// enough to be an honest outage, short enough that the keepalive
// (echoInterval × echoMaxMiss = 1.5s) never mistakes a shard
// failover for dead switches.
const defaultShardFailoverDelay = 200 * time.Millisecond

// ShardStat is one shard's activity snapshot (Controller.ShardStats).
type ShardStat struct {
	ID    int
	Alive bool
	// Msgs/PacketIns count control-channel messages from owned switches.
	Msgs      uint64
	PacketIns uint64
	// SetupsOwned counts flow setups this shard decided (its switch was
	// the ingress).
	SetupsOwned uint64
	// CrossInstallsOut/In count per-switch install batches sent to /
	// received from peer shards.
	CrossInstallsOut uint64
	CrossInstallsIn  uint64
	// ReplOut/In count replicated state-update messages (topology, host,
	// SE facts) sent to / received from peers.
	ReplOut uint64
	ReplIn  uint64
}

// pendingShardMsg is one message parked while its owner shard is dead.
type pendingShardMsg struct {
	st *switchState
	m  openflow.Message
	at time.Duration
}

// shardState is one controller shard's live state.
type shardState struct {
	id    int
	alive bool
	// busyUntil is the shard lane's serialized-processing clock: the
	// virtual time its event loop finishes the packet-ins accepted so
	// far (ShardLanes only).
	busyUntil time.Duration
	// downSince stamps the kill for outage accounting.
	downSince time.Duration
	pending   []pendingShardMsg
	stat      ShardStat
}

// shardLayer is the controller's shard bookkeeping, non-nil only when
// Config.Shards > 1 or Config.ShardLanes is set.
type shardLayer struct {
	ring          *ShardRing
	shards        []*shardState
	lanes         bool
	coordLatency  time.Duration
	failoverDelay time.Duration
	// coordSeq numbers cross-shard coordination messages; together with
	// the emission timestamp and the owner shard id it forms the
	// canonical (time, shard, seq) order the engine merges them in.
	coordSeq uint64
}

func newShardLayer(cfg Config) *shardLayer {
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	sh := &shardLayer{
		ring:          NewShardRing(n),
		shards:        make([]*shardState, n),
		lanes:         cfg.ShardLanes && !cfg.OverloadProtection,
		coordLatency:  cfg.ShardCoordLatency,
		failoverDelay: cfg.ShardFailoverDelay,
	}
	for i := range sh.shards {
		sh.shards[i] = &shardState{id: i, alive: true}
	}
	return sh
}

// shardFor returns the shard owning a switch.
func (sh *shardLayer) shardFor(dpid uint64) *shardState {
	return sh.shards[sh.ring.Owner(dpid)]
}

// Shards returns the effective shard count (1 when sharding is off).
func (c *Controller) Shards() int {
	if c.sh == nil {
		return 1
	}
	return len(c.sh.shards)
}

// ShardOf returns the shard owning the switch with the given datapath
// id (0 when sharding is off).
func (c *Controller) ShardOf(dpid uint64) int {
	if c.sh == nil {
		return 0
	}
	return c.sh.ring.Owner(dpid)
}

// ShardAlive reports whether a shard's event loop is up (true for any
// id when sharding is off: the single controller is the shard).
func (c *Controller) ShardAlive(id int) bool {
	if c.sh == nil {
		return true
	}
	if id < 0 || id >= len(c.sh.shards) {
		return false
	}
	return c.sh.shards[id].alive
}

// ShardStats returns a per-shard activity snapshot, nil when sharding
// is off.
func (c *Controller) ShardStats() []ShardStat {
	if c.sh == nil {
		return nil
	}
	out := make([]ShardStat, len(c.sh.shards))
	for i, s := range c.sh.shards {
		st := s.stat
		st.ID = s.id
		st.Alive = s.alive
		out[i] = st
	}
	return out
}

// shardIntercept sees every control-channel message before the ingress
// pipeline. It attributes the message to its owner shard, parks it when
// that shard is dead, and — with ShardLanes — serializes packet-ins on
// the shard's own busy clock. It returns true when it consumed the
// message.
func (c *Controller) shardIntercept(st *switchState, m openflow.Message) bool {
	sh := c.sh
	s := sh.shardFor(st.dpid)
	s.stat.Msgs++
	_, isPacketIn := m.(*openflow.PacketIn)
	if isPacketIn {
		s.stat.PacketIns++
	}
	if !s.alive {
		// The shard's event loop is down; its switches' messages wait for
		// the standby takeover (shard_failover.go), in arrival order.
		s.pending = append(s.pending, pendingShardMsg{st: st, m: m, at: c.eng.Now()})
		c.stats.ShardQueuedMsgs++
		return true
	}
	if sh.lanes && isPacketIn && c.cfg.PacketInCost > 0 {
		c.shardLaneDispatch(s, st, m, c.eng.Now(), 0, 0)
		return true
	}
	return false
}

// shardLaneDispatch runs one packet-in through the shard's serialized
// event loop: it completes PacketInCost after the later of now and the
// lane's current backlog — the per-shard generalization of the
// single-FIFO model in overload.go (identical timing at one shard).
// Non-packet-in traffic is never laned, so echo and barrier replies
// keep strict priority, like the defended pipeline's control lane.
// ptrace/pspan carry the trace context of an enclosing operation (a
// shard takeover draining its parked queue) into the deferred dispatch;
// zero means the setup starts its own trace.
func (c *Controller) shardLaneDispatch(s *shardState, st *switchState, m openflow.Message, at time.Duration, ptrace, pspan uint64) {
	start := c.eng.Now()
	if s.busyUntil > start {
		start = s.busyUntil
	}
	s.busyUntil = start + c.cfg.PacketInCost
	c.eng.At(s.busyUntil, func() {
		if c.obs != nil {
			c.obsAcceptedAt = at
			c.obsParentTrace, c.obsParentSpan = ptrace, pspan
		}
		c.dispatch(st, m)
		if c.obs != nil {
			c.obsParentTrace, c.obsParentSpan = 0, 0
		}
	})
}

// shardFlush completes one setup's emission through the shard layer.
// The ingress switch's shard owns the setup; batches targeting switches
// owned by peer shards are cross-shard installs. With sharding off (or
// zero coordination latency) this is exactly emitter.flush plus
// accounting; with ShardCoordLatency > 0 the peer batches travel as
// coordination messages tagged (time, shard, seq) and install on
// arrival — barrier requests ride inside the batch, so a barriered
// release still waits for the remote segment.
//
// sp is the setup's trace span (nil when observability is off or the
// setup never opened one): each deferred coordination message records a
// shard_coord child span under it, closed when the peer installs the
// batch, so /traces shows the cross-shard hop as part of the setup tree.
func (c *Controller) shardFlush(em *emitter, ingress *switchState, sp *obs.Span) {
	sh := c.sh
	if sh == nil {
		em.flush()
		return
	}
	owner := sh.ring.Owner(ingress.dpid)
	own := sh.shards[owner]
	own.stat.SetupsOwned++
	cross := 0
	for i := 0; i < em.n; i++ {
		peer := sh.ring.Owner(em.batches[i].st.dpid)
		if peer == owner {
			continue
		}
		cross++
		own.stat.CrossInstallsOut++
		sh.shards[peer].stat.CrossInstallsIn++
		c.stats.ShardCrossInstalls++
	}
	if cross > 0 {
		c.stats.ShardCrossSetups++
	}
	if sh.coordLatency <= 0 || cross == 0 {
		em.flush()
		return
	}
	for i := 0; i < em.n; i++ {
		b := &em.batches[i]
		if sh.ring.Owner(b.st.dpid) == owner {
			openflow.SendAll(b.st.conn, b.msgs...)
		} else {
			// The emitter's batch slice is reused by the next setup, so the
			// deferred coordination message owns a copy. Same-deadline
			// messages keep emission order: the engine fires equal
			// timestamps in scheduling order, which is exactly the
			// (time, shard, seq) tagging order.
			msgs := append([]openflow.Message(nil), b.msgs...)
			conn := b.st.conn
			sh.coordSeq++
			c.stats.ShardCoordMsgs++
			ch := c.obs.StartChild(sp, obs.KindShardCoord, c.eng.Now())
			if ch != nil {
				ch.Switch = b.st.dpid
			}
			c.eng.Schedule(sh.coordLatency, func() {
				openflow.SendAll(conn, msgs...)
				c.obs.FinishSpan(ch, c.eng.Now())
			})
		}
		b.st = nil
	}
	em.n = 0
}

// shardReplicate charges the lock-step replication of one learned fact
// (switch registration, host location, SE state — keyed by the switch
// it was learned at) from the owning shard to every peer. Counters
// only: the model's replicas are exact by construction, which is what
// makes decisions shard-invariant.
func (c *Controller) shardReplicate(dpid uint64) {
	sh := c.sh
	if sh == nil || len(sh.shards) == 1 {
		return
	}
	src := sh.shardFor(dpid)
	for _, s := range sh.shards {
		if s == src {
			continue
		}
		src.stat.ReplOut++
		s.stat.ReplIn++
	}
	c.stats.ShardReplEntries++
}
