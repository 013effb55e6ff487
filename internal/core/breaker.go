package core

// Per-service-element circuit breakers around SE dispatch. The
// heartbeat timeout catches elements that *stop talking* (housekeep
// expiry); it is blind to the nastier degradations chaos can inject: a
// wedged element that keeps heartbeating while silently dropping
// traffic, or a slow element whose queue grows without bound. Steering
// new flows into either is queuing work behind a sink.
//
// Each element carries a closed → open → half-open state machine driven
// by its own load reports (every service.HeartbeatInterval):
//
//	         breakerTripAfter consecutive bad reports
//	closed ────────────────────────────────────────────► open
//	   ▲                                                  │
//	   │ probe's report healthy              open timeout │
//	   │                                                  ▼
//	   └─────────────────────────────────────────────  half-open
//	                      (one probe flow; a bad report re-trips
//	                       with doubled timeout)
//
// A report is bad when the reported queue depth exceeds
// breakerMaxQueue, or when flows were assigned since the last report but
// the element's processed-packet counter did not advance (the wedge
// signature). Tripping drains the element's live sessions — their next
// packet re-steers through surviving elements or hits the policy's fail
// mode — and excludes it from pickElement until the open timeout, which
// backs off exponentially (breakerOpenBase, doubled per consecutive
// trip, capped at breakerOpenCap) on the sim clock, so everything stays
// deterministic.

import (
	"time"

	"livesec/internal/monitor"
	"livesec/internal/seproto"
)

// Circuit-breaker thresholds.
const (
	// breakerTripAfter is the consecutive-bad-report trip threshold.
	breakerTripAfter = 2
	// breakerMaxQueue is the reported queue depth (bytes) above which a
	// load report counts as bad: half the element's default ingress
	// queue cap (service.Config.QueueBytes, 512 KiB), past which queues
	// mean multi-heartbeat backlogs.
	breakerMaxQueue = 256 << 10
	// breakerOpenBase and breakerOpenCap bound the exponential open
	// timeout: base, 2·base, … per consecutive trip, capped.
	breakerOpenBase = 2 * time.Second
	breakerOpenCap  = 30 * time.Second
)

// breakerState is the per-element circuit state.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// String names the state for snapshots and events.
func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breakerObserve folds one load report into the element's breaker.
// Called from handleSEOnline before the report overwrites load and
// pendingAssign, so the wedge check sees the work assigned since the
// previous report.
func (c *Controller) breakerObserve(se *seState, load seproto.Load) {
	bad := load.QueueLen > breakerMaxQueue ||
		(se.pendingAssign > 0 && load.Packets <= se.prevPackets)
	se.prevPackets = load.Packets
	switch se.brState {
	case breakerClosed:
		if !bad {
			se.brFails = 0
			return
		}
		se.brFails++
		if se.brFails >= breakerTripAfter {
			c.tripBreaker(se, "unhealthy load reports")
		}
	case breakerHalfOpen:
		if bad {
			c.tripBreaker(se, "half-open probe failed")
			return
		}
		if !se.brProbing {
			// No probe flow was dispatched yet, so this report proves
			// nothing about the data path; keep waiting.
			return
		}
		se.brState = breakerClosed
		se.brFails = 0
		se.brTrips = 0
		se.brProbing = false
		c.stats.BreakerCloses++
		c.record(monitor.Event{Type: monitor.EventBreakerClose, SE: se.id,
			Detail: "probe healthy"})
	case breakerOpen:
		// Reports while open are ignored; only the timeout (checked in
		// breakerAllows) reopens the path.
	}
}

// tripBreaker opens the circuit: the element is excluded from steering
// until the open timeout (exponential per consecutive trip), its cached
// plans are invalidated, and its live sessions drain so their next
// packet re-steers.
func (c *Controller) tripBreaker(se *seState, why string) {
	se.brState = breakerOpen
	se.brFails = 0
	se.brProbing = false
	se.brTrips++
	se.brOpenUntil = c.eng.Now() +
		backoffDelay(se.brTrips, breakerOpenBase, breakerOpenCap)
	c.stats.BreakerTrips++
	c.cache.invalidateSE(se.id)
	c.record(monitor.Event{Type: monitor.EventBreakerOpen, SE: se.id, Detail: why})
	c.drainElement(se.id)
}

// breakerAllows reports whether dispatch may offer the element as a
// candidate. An expired open timeout transitions to half-open, which
// admits exactly one probe flow at a time (markBreakerProbe).
func (c *Controller) breakerAllows(se *seState) bool {
	switch se.brState {
	case breakerOpen:
		if c.eng.Now() >= se.brOpenUntil {
			se.brState = breakerHalfOpen
			se.brProbing = false
			return true
		}
		c.stats.BreakerSkips++
		return false
	case breakerHalfOpen:
		if se.brProbing {
			c.stats.BreakerSkips++
			return false
		}
		return true
	default:
		return true
	}
}

// markBreakerProbe records that the balancer picked a half-open element:
// that flow is the probe, and no further flows are offered the element
// until its verdict arrives with the next load report.
func (c *Controller) markBreakerProbe(se *seState) {
	if se.brState == breakerHalfOpen {
		se.brProbing = true
	}
}

// BreakerInfo is one element's circuit state for snapshots.
type BreakerInfo struct {
	SE    uint64 `json:"se"`
	State string `json:"state"`
	Trips int    `json:"trips"`
}

// BreakerStates returns every element's breaker, sorted by SE id.
func (c *Controller) BreakerStates() []BreakerInfo {
	out := make([]BreakerInfo, 0, len(c.elemOrder))
	for _, se := range c.elemOrder {
		out = append(out, BreakerInfo{SE: se.id, State: se.brState.String(), Trips: se.brTrips})
	}
	return out
}
