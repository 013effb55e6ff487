package core

// Hot-standby shard failover (see shard.go for the model). KillShard
// stops a shard's event loop; ShardFailoverDelay later its standby
// takes over the same shard id — ownership never moves — and makes the
// dead loop's work whole again:
//
//   timeline (one shard, delay D):
//
//     t0          kill: owner loop dead; owned switches' messages park
//     (t0, t0+D)  outage window: queued packet-ins, delayed replies;
//                 peer shards keep deciding and installing their flows
//     t0+D        takeover: replay the PR2 shadow flow table of every
//                 owned switch (idempotent adds, original emission
//                 order), then drain the parked messages in arrival
//                 order — laned through the shard's busy clock when
//                 ShardLanes is on
//
// The standby's replicated view equals the primary's at the kill
// instant (shard.go replication invariant), so the replay is the only
// state reconciliation needed: any entry the primary lost in the
// handoff is reinstalled, and re-adding an entry the switch already
// holds is a no-op overwrite. The outage window is charged to
// PolicyViolationTime — flows owned by a dead decision point ran
// without enforcement of policy *changes* for its duration — which the
// E10 experiment shows stays bounded by the configured delay.

import (
	"sort"

	"livesec/internal/monitor"
	"livesec/internal/obs"
	"livesec/internal/openflow"
)

// KillShard marks a shard's event loop dead and schedules the standby
// takeover. It returns false when sharding is off, the id is unknown,
// or the shard is already dead.
func (c *Controller) KillShard(id int) bool {
	sh := c.sh
	if sh == nil || id < 0 || id >= len(sh.shards) {
		return false
	}
	s := sh.shards[id]
	if !s.alive {
		return false
	}
	s.alive = false
	s.downSince = c.eng.Now()
	c.stats.ShardKills++
	c.record(monitor.Event{Type: monitor.EventShardKill,
		Detail: "shard " + uitoa(uint64(id)) + " event loop down"})
	c.eng.Schedule(sh.failoverDelay, func() { c.shardTakeover(s) })
	return true
}

// shardTakeover is the standby coming up: replay, account, drain.
func (c *Controller) shardTakeover(s *shardState) {
	sh := c.sh
	now := c.eng.Now()
	s.alive = true
	c.stats.ShardTakeovers++

	// The takeover anchors its own trace: the shadow replay and every
	// drained setup become children, so /traces shows the whole recovery
	// as one tree. The span starts at the kill instant — its duration is
	// the outage window plus the synchronous replay.
	tk := c.obs.StartRoot(obs.KindShardTakeover, s.downSince)

	// Reinstall the shadow flow tables of every owned switch (switches in
	// ascending dpid order, entries in original emission order — both for
	// determinism and so dependent entries reappear in install order).
	// Shadows exist only under Config.Keepalive; without it the takeover
	// is queue-drain only.
	replayed := 0
	for _, st := range c.sortedSwitches() {
		if sh.ring.Owner(st.dpid) != s.id || !st.ready || st.down {
			continue
		}
		entries := shadowOrdered(st)
		if len(entries) == 0 {
			continue
		}
		msgs := make([]openflow.Message, 0, len(entries))
		for _, e := range entries {
			fm := e.fm
			fm.XID = c.xid()
			msgs = append(msgs, &fm)
			c.stats.FlowModsSent++
		}
		openflow.SendAll(st.conn, msgs...)
		replayed += len(entries)
	}
	c.stats.ShardShadowReplayed += uint64(replayed)

	// The outage window is a policy-enforcement gap for the shard's
	// flows; charge it like a fail-open window.
	c.violationAccum += now - s.downSince

	// Drain parked messages in arrival order. Packet-ins go through the
	// lane clock when lanes are on, so the backlog drains at the modeled
	// processing rate instead of instantaneously.
	pending := s.pending
	s.pending = nil
	var ptrace, pspan uint64
	if tk != nil {
		ptrace, pspan = tk.TraceID, tk.ID
	}
	for _, pm := range pending {
		if _, isPI := pm.m.(*openflow.PacketIn); isPI && sh.lanes && c.cfg.PacketInCost > 0 {
			// Setups deferred through the lane clock still join the
			// takeover's trace: the context rides into the deferred
			// dispatch by value.
			c.shardLaneDispatch(s, pm.st, pm.m, pm.at, ptrace, pspan)
			continue
		}
		if c.obs != nil {
			c.obsAcceptedAt = pm.at
			c.obsParentTrace, c.obsParentSpan = ptrace, pspan
		}
		c.dispatch(pm.st, pm.m)
	}
	if c.obs != nil {
		c.obsParentTrace, c.obsParentSpan = 0, 0
	}
	c.obs.FinishSpan(tk, c.eng.Now())
	c.record(monitor.Event{Type: monitor.EventShardTakeover,
		Detail: "shard " + uitoa(uint64(s.id)) + " standby up: " +
			uitoa(uint64(replayed)) + " entries replayed, " +
			uitoa(uint64(len(pending))) + " messages drained"})
}

// shadowOrdered returns a switch's shadow flow table in original
// emission order (shared by the resync replay in resilience.go and the
// shard takeover replay above).
func shadowOrdered(st *switchState) []*shadowEntry {
	entries := make([]*shadowEntry, 0, len(st.shadow))
	for _, e := range st.shadow {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].seq < entries[j].seq })
	return entries
}
