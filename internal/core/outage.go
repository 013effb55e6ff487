package core

// Whole-controller outage: the fault a chaos ControllerDown/ControllerUp
// pair injects (internal/chaos), standing for the controller process
// crashing and coming back with its state intact. The paper's claim is
// that such a failure is survivable (§IV.B "single point failure …
// avoided"); this file is what makes it so.
//
//	t0        Fail: the ingress pipeline holds in place, and a packet-in
//	          in timed service goes back to its lane's head (the crash
//	          lost that work); every arriving control message parks, in
//	          arrival order; the controller sends nothing, serves nothing
//	          and expires nothing
//	t1        Recover: the outage is charged to PolicyViolationTime;
//	          every registered switch resyncs (resilience.go: features,
//	          wipe, shadow and session replay, barrier); the pipeline
//	          serves again, but no packet-in
//	t1 + RTT  no switch is left resyncing: the parked messages are
//	          accepted, and so admitted, behind what the pipeline held
//
// Between Recover and the drain other messages are served at once, in the
// control lane — the resync's barrier and features replies are among them
// — but packet-ins keep parking, so no drained setup finds a switch on
// its path unusable. A resync that fails hands its switch to the
// down/probe loop and does not hold the drain up.

import (
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
	if ov := &c.ov; !c.holding { // a failure before the drain holds nothing new
		if it := ov.serving; it.m != nil {
			// The crash lost its work: back to the slot it left, to serve again.
			ov.charge++
			ov.busy, ov.serving = false, ingressItem{}
			ov.dataHead--
			ov.data[ov.dataHead] = it
			if c.cfg.OverloadProtection {
				ov.perSwitch[it.st.dpid]++
			}
		}
		ctrl, pis := c.IngressDepths()
		c.stats.ParkedMsgs += uint64(ctrl + pis)
	}
	c.down, c.holding = true, true
	c.downSince = c.eng.Now()
	c.record(monitor.Event{Type: monitor.EventControllerDown, Detail: "controller down"})
}

// Recover brings the controller back: it charges the outage, resyncs
// every registered switch, serves what the pipeline held up to its first
// packet-in, and drains the parked queue once no switch is resyncing.
// Recover while up is ignored.
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
		Detail: uitoa(uint64(c.held())) + " messages parked, " +
			uitoa(uint64(resyncs)) + " switches resyncing"})
	c.drainParked()
}

// park holds an arriving message, with its arrival time, while the
// controller is down, and a packet-in while recovery's resyncs are in
// flight. It reports whether it took the message.
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

// held counts the messages an outage holds: the pipeline's backlog and
// the parked arrivals.
func (c *Controller) held() int {
	if !c.holding {
		return 0
	}
	ctrl, pis := c.IngressDepths()
	return ctrl + pis + len(c.parked)
}

// drainParked accepts the parked queue, in arrival order and behind what
// the pipeline held, once the controller is up and no switch is left
// resyncing. Either way, the pipeline then serves what it may.
func (c *Controller) drainParked() {
	defer c.ingressServe()
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
	for _, it := range q {
		c.accept(it)
	}
}
