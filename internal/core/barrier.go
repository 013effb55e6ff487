package core

import (
	"livesec/internal/obs"
	"livesec/internal/openflow"
)

// Barrier-synchronized packet release. The first packet of a flow is
// normally released with a packet-out immediately after the flow-mods
// are sent; on a real network (and in the simulator) the packet can
// overtake a flow-mod still in flight to a downstream switch, miss its
// table, and bounce back to the controller. OpenFlow's BARRIER exists
// for exactly this: when Config.UseBarriers is set, the controller sends
// a BarrierRequest to every switch it just programmed and holds the
// buffered packet until all BarrierReplies arrive.

// pendingRelease is a packet-out waiting for barrier acknowledgements.
type pendingRelease struct {
	st      *switchState
	po      *openflow.PacketOut
	waiting map[uint32]bool // outstanding barrier xids
	// span is the flow-setup trace parked across the barrier round trip.
	span *obs.Span
}

// barrierRelease wires one release: barriers are queued on the emitter
// (riding each switch's flow-mod batch, in the plan's ascending dpid
// order); the packet-out fires when the last reply lands.
func (c *Controller) barrierRelease(em *emitter, st *switchState, po *openflow.PacketOut, dpids []uint64, span *obs.Span) {
	if c.pendingReleases == nil {
		c.pendingReleases = make(map[uint32]*pendingRelease)
	}
	rel := &pendingRelease{st: st, po: po, waiting: make(map[uint32]bool, len(dpids)), span: span}
	for _, dpid := range dpids {
		target, ok := c.switches[dpid]
		if !ok {
			continue
		}
		xid := c.xid()
		rel.waiting[xid] = true
		c.pendingReleases[xid] = rel
		b := em.batchFor(target)
		b.msgs = append(b.msgs, &openflow.BarrierRequest{XID: xid})
	}
	if len(rel.waiting) == 0 {
		c.sendPacketOut(st, po)
		c.obs.FinishSpan(span, c.eng.Now())
	}
}

// handleBarrierReply resolves outstanding resyncs and releases.
func (c *Controller) handleBarrierReply(xid uint32) {
	if st, ok := c.pendingResyncs[xid]; ok {
		delete(c.pendingResyncs, xid)
		if st.resyncing && st.resyncXID == xid {
			c.finishResync(st)
		}
		return
	}
	rel, ok := c.pendingReleases[xid]
	if !ok {
		return
	}
	delete(c.pendingReleases, xid)
	delete(rel.waiting, xid)
	if len(rel.waiting) == 0 {
		c.sendPacketOut(rel.st, rel.po)
		c.obs.FinishSpan(rel.span, c.eng.Now())
	}
}
