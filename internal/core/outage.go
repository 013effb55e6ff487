package core

// Whole-controller outage: the fault a chaos ControllerDown/ControllerUp
// pair injects (internal/chaos), standing for the controller process
// crashing and coming back with its state intact. The paper's claim is
// that such a failure is survivable (§IV.B "single point failure …
// avoided"); this file is what makes it so.
//
//	t0        Fail: every control message parks, in arrival order; the
//	          controller sends nothing and expires nothing
//	(t0, t1)  outage: packet-ins wait, periodic work returns early, and
//	          what the ingress pipeline held parks as it is served
//	t1        Recover: the outage is charged to PolicyViolationTime;
//	          every registered switch resyncs (resilience.go: features,
//	          wipe, shadow and session replay, barrier)
//	t1 + RTT  no switch is left resyncing: the parked queue re-enters
//	          the ingress pipeline, so PacketInCost and
//	          OverloadProtection still apply
//
// Between Recover and the drain other messages dispatch at once — the
// resync's barrier and features replies are among them — but packet-ins
// keep parking behind the older ones, so no drained setup finds a
// switch on its path unusable. A resync that fails hands its switch to
// the down/probe loop and does not hold the drain up.

import (
	"sort"

	"livesec/internal/monitor"
	"livesec/internal/openflow"
)

// maxParked bounds the parked queue. At E9's full-scale flood of 12,000
// packet-ins/s it holds a 1.3 s outage (2.7 s at the ci flood's 6,000/s);
// what arrives past it is dropped and counted in Stats.ParkedDrops.
const maxParked = 16384

// Fail takes the whole controller down. A second Fail while down is
// ignored.
func (c *Controller) Fail() {
	if c.down {
		return
	}
	c.down, c.holding = true, true
	c.downSince = c.eng.Now()
	c.record(monitor.Event{Type: monitor.EventControllerDown, Detail: "controller down"})
}

// Recover brings the controller back: it charges the outage, resyncs
// every registered switch and drains the parked queue once no switch is
// resyncing. Recover while up is ignored.
func (c *Controller) Recover() {
	if !c.down {
		return
	}
	c.down = false
	c.violationAccum += c.eng.Now() - c.downSince
	resyncs := 0
	for _, st := range c.sortedSwitches() {
		if !st.ready || st.down {
			continue // a down switch stays with the probe loop
		}
		// A resync cut short by the outage restarts from scratch.
		delete(c.pendingResyncs, st.resyncXID)
		c.beginResync(st)
		resyncs++
	}
	c.record(monitor.Event{Type: monitor.EventControllerUp,
		Detail: uitoa(uint64(len(c.parked))) + " messages parked, " +
			uitoa(uint64(resyncs)) + " switches resyncing"})
	c.drainParked()
}

// park holds a message, with its arrival time, while the controller is
// down, and a packet-in while recovery's resyncs are in flight. It
// reports whether it took the message.
func (c *Controller) park(it ingressItem) bool {
	if _, pi := it.m.(*openflow.PacketIn); !c.down && !pi {
		return false
	}
	if len(c.parked) >= maxParked {
		c.stats.ParkedDrops++
		return true
	}
	c.parked = append(c.parked, it)
	c.stats.ParkedMsgs++
	return true
}

// drainParked re-enters the parked queue in arrival order once the
// controller is up and no switch is left resyncing. Messages the ingress
// pipeline held at the failure park when it serves them, after younger
// arrivals, so the queue is sorted back into arrival order first.
func (c *Controller) drainParked() {
	if c.down || !c.holding {
		return
	}
	for _, st := range c.switches {
		if st.resyncing {
			return
		}
	}
	q := c.parked
	c.parked, c.holding = nil, false
	sort.SliceStable(q, func(i, j int) bool { return q[i].at < q[j].at })
	for _, it := range q {
		c.accept(it.st, it.m, it.at)
	}
}
