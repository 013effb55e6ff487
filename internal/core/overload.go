package core

// Control-plane overload protection: a reactive controller sets up every
// flow from a packet-in (§III.C), which makes packet-in volume its
// scaling bottleneck and classic DoS vector — one host generating novel
// flows can starve echo replies (falsely killing healthy switches,
// resilience.go) and stall every legitimate flow setup.
//
// Two orthogonal knobs model and defend this path:
//
//   - Config.PacketInCost gives each packet-in a serialized processing
//     cost on the controller (other message types ride free — their only
//     delay is the backlog ahead of them). With the cost alone, the
//     controller is the naive single-FIFO design: a storm builds a
//     backlog that delays echo replies past the keepalive budget.
//   - Config.OverloadProtection turns on the defended pipeline:
//
//       switch msgs ──► classify ──► control lane (echo/barrier/stats/…)
//                          │             │ always served first
//                          ▼             ▼
//                      admission ──► per-switch bounded queue ──► dispatch
//                       (token           (ingressQueueCap)
//                        buckets)
//
//     Non-packet-in messages bypass admission entirely and are served
//     strictly before queued packet-ins, so liveness probing and resync
//     barriers never wait behind a storm. Packet-ins pass a per-source-
//     MAC and a per-switch token bucket; a source that exhausts its
//     budget (or overflows the queue) is shed, and the controller
//     installs a short-lived low-priority "suppression" flow mod on the
//     offending switch so the storm is absorbed in the dataplane instead
//     of the control channel.
//
// Both knobs default to off, so existing runs reproduce bit-for-bit.
// Everything is driven by the sim clock and deterministic: bucket refill
// is pure arithmetic on virtual elapsed time, and the lanes are plain
// FIFOs.

import (
	"time"

	"livesec/internal/flow"
	"livesec/internal/monitor"
	"livesec/internal/netpkt"
	"livesec/internal/openflow"
)

// prioSuppress ranks suppression entries below every forwarding entry
// (prioForward and up), so established flows keep working and only
// table-miss traffic — the novel flows a storm is made of — hits them.
const prioSuppress uint16 = 100

// suppressCookie tags suppression entries so their FLOW_REMOVED
// notifications are never mistaken for expired data sessions (the
// accounting also skips them via their wildcards, like dropCookie).
const suppressCookie uint64 = 0xD1

// Overload-protection budgets.
const (
	ingressQueueCap = 256  // queued packet-ins per switch
	packetInRate    = 2000 // packet-ins/s per switch
	packetInBurst   = 200
	sourceRate      = 50 // packet-ins/s per source MAC
	sourceBurst     = 50
	// suppressHold is the hard timeout of suppression entries (whole
	// seconds on the wire).
	suppressHold = time.Second
	// srcBucketIdle is how long an idle per-source bucket survives
	// before housekeeping reclaims it.
	srcBucketIdle = 10 * time.Second
)

// tokenBucket is a deterministic sim-clock token bucket.
type tokenBucket struct {
	tokens float64
	last   time.Duration
}

// take refills from virtual elapsed time and consumes one token,
// reporting whether one was available.
func (b *tokenBucket) take(now time.Duration, rate, burst float64) bool {
	b.tokens += rate * (now - b.last).Seconds()
	b.last = now
	if b.tokens > burst {
		b.tokens = burst
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// ingressItem is one queued control-channel message. at is the arrival
// time, anchoring the queue-wait stage of flow-setup traces.
type ingressItem struct {
	st *switchState
	m  openflow.Message
	at time.Duration
}

// suppressKey identifies an installed suppression entry.
type suppressKey struct {
	dpid uint64
	src  netpkt.MAC
}

// overloadState is the ingress pipeline, allocated only when
// PacketInCost or OverloadProtection is set.
type overloadState struct {
	busy bool
	// ctrl is the priority lane (everything but packet-ins); data holds
	// admitted packet-ins. Head-indexed slices so serving is O(1).
	ctrl     []ingressItem
	ctrlHead int
	data     []ingressItem
	dataHead int
	// perSwitch tracks queued packet-ins per dpid against ingressQueueCap.
	perSwitch map[uint64]int
	// Admission buckets.
	swBuckets  map[uint64]*tokenBucket
	srcBuckets map[netpkt.MAC]*tokenBucket
	// suppressed dedupes suppression installs until their hard timeout.
	suppressed map[suppressKey]time.Duration
}

func newOverloadState() *overloadState {
	return &overloadState{
		perSwitch:  make(map[uint64]int),
		swBuckets:  make(map[uint64]*tokenBucket),
		srcBuckets: make(map[netpkt.MAC]*tokenBucket),
		suppressed: make(map[suppressKey]time.Duration),
	}
}

// IngressDepths reports the current ingress backlog: the control-lane
// length and the total queued packet-ins (0, 0 when the pipeline is
// disabled).
func (c *Controller) IngressDepths() (ctrl, packetIns int) {
	if c.ov == nil {
		return 0, 0
	}
	return len(c.ov.ctrl) - c.ov.ctrlHead, len(c.ov.data) - c.ov.dataHead
}

// ingressAccept is the pipeline entry: classify, admit, enqueue, and
// kick the server if idle. at is the message's arrival time (earlier
// than now for a message parked during an outage).
func (c *Controller) ingressAccept(st *switchState, m openflow.Message, at time.Duration) {
	ov := c.ov
	pi, isPacketIn := m.(*openflow.PacketIn)
	switch {
	case !c.cfg.OverloadProtection:
		// Naive single-FIFO controller: everything shares one queue in
		// arrival order; only the PacketInCost model below applies.
		ov.data = append(ov.data, ingressItem{st, m, at})
	case !isPacketIn:
		// Priority lane: liveness and correctness traffic never waits
		// behind a storm.
		ov.ctrl = append(ov.ctrl, ingressItem{st, m, at})
	default:
		if !c.admitPacketIn(st, pi) {
			return
		}
		ov.perSwitch[st.dpid]++
		ov.data = append(ov.data, ingressItem{st, m, at})
	}
	if !ov.busy {
		c.ingressServe()
	}
}

// admitPacketIn runs the token buckets and the queue bound. A shed
// verdict counts, attributes (source budget, switch budget, overflow),
// and may install a suppression entry for the offending source.
func (c *Controller) admitPacketIn(st *switchState, pi *openflow.PacketIn) bool {
	ov := c.ov
	now := c.eng.Now()
	src, haveSrc := packetInSource(pi)
	if haveSrc {
		b := ov.srcBuckets[src]
		if b == nil {
			b = &tokenBucket{tokens: sourceBurst, last: now}
			ov.srcBuckets[src] = b
		}
		if !b.take(now, sourceRate, sourceBurst) {
			c.stats.PacketInsShed++
			c.stats.ShedSourceBudget++
			c.obsShed(st, src, haveSrc)
			c.suppressSource(st, src)
			return false
		}
	}
	sb := ov.swBuckets[st.dpid]
	if sb == nil {
		sb = &tokenBucket{tokens: packetInBurst, last: now}
		ov.swBuckets[st.dpid] = sb
	}
	if !sb.take(now, packetInRate, packetInBurst) {
		// The switch as a whole is over budget; no single source to pin
		// a suppression on.
		c.stats.PacketInsShed++
		c.stats.ShedSwitchBudget++
		c.obsShed(st, src, haveSrc)
		return false
	}
	if ov.perSwitch[st.dpid] >= ingressQueueCap {
		c.stats.PacketInsShed++
		c.stats.ShedQueueOverflow++
		c.obsShed(st, src, haveSrc)
		if haveSrc {
			c.suppressSource(st, src)
		}
		return false
	}
	return true
}

// packetInSource extracts the frame's source MAC without a full decode
// (Ethernet: dst 0:6, src 6:12).
func packetInSource(pi *openflow.PacketIn) (netpkt.MAC, bool) {
	if len(pi.Data) < 12 {
		return netpkt.MAC{}, false
	}
	var mac netpkt.MAC
	copy(mac[:], pi.Data[6:12])
	return mac, true
}

// suppressSource installs the short-lived low-priority suppression
// entry for src at st, absorbing the storm in the dataplane until the
// entry's hard timeout. Installs are deduped until expiry.
func (c *Controller) suppressSource(st *switchState, src netpkt.MAC) {
	if !st.usable() {
		return
	}
	ov := c.ov
	now := c.eng.Now()
	k := suppressKey{st.dpid, src}
	if until, ok := ov.suppressed[k]; ok && now < until {
		return
	}
	ov.suppressed[k] = now + suppressHold
	c.sendFlowMod(st, &openflow.FlowMod{
		Match: flow.Match{
			Wildcards: flow.WildAll &^ flow.WildEthSrc,
			Key:       flow.Key{EthSrc: src},
		},
		Cookie:      suppressCookie,
		Command:     openflow.FlowAdd,
		Priority:    prioSuppress,
		HardTimeout: uint16(suppressHold / time.Second),
		Actions:     openflow.Drop(),
	})
	c.stats.SuppressRules++
	c.record(monitor.Event{Type: monitor.EventSuppress, Switch: st.dpid,
		User: src.String(), Detail: "drop " + suppressHold.String()})
}

// ingressServe drains the lanes: control lane strictly first, then
// packet-ins. Zero-cost items dispatch inline; a packet-in with a
// modeled cost occupies the (single-threaded) controller for
// PacketInCost of virtual time before the next item is served.
func (c *Controller) ingressServe() {
	ov := c.ov
	for {
		var it ingressItem
		isPacketIn := false
		switch {
		case ov.ctrlHead < len(ov.ctrl):
			it = ov.ctrl[ov.ctrlHead]
			ov.ctrl[ov.ctrlHead] = ingressItem{}
			ov.ctrlHead++
		case ov.dataHead < len(ov.data):
			it = ov.data[ov.dataHead]
			ov.data[ov.dataHead] = ingressItem{}
			ov.dataHead++
			_, isPacketIn = it.m.(*openflow.PacketIn)
			if isPacketIn && c.cfg.OverloadProtection {
				ov.perSwitch[it.st.dpid]--
			}
		default:
			ov.ctrl, ov.ctrlHead = ov.ctrl[:0], 0
			ov.data, ov.dataHead = ov.data[:0], 0
			ov.busy = false
			return
		}
		if !isPacketIn || c.cfg.PacketInCost <= 0 {
			c.serveItem(it)
			continue
		}
		ov.busy = true
		c.eng.Schedule(c.cfg.PacketInCost, func() {
			c.serveItem(it)
			c.ingressServe()
		})
		return
	}
}

// serveItem dispatches one served item, unless an outage (outage.go)
// parks it: what the pipeline held when the controller went down waits
// for recovery with the messages that arrived after it.
func (c *Controller) serveItem(it ingressItem) {
	if c.holding && c.park(it.st, it.m, it.at) {
		return
	}
	if c.obs != nil {
		c.obsAcceptedAt = it.at
	}
	c.dispatch(it.st, it.m)
}

// overloadHousekeep reclaims expired suppression records and idle
// per-source buckets (bounding state under storms of spoofed sources).
// Pure map cleanup: no emissions, so deletion order is irrelevant.
func (c *Controller) overloadHousekeep(now time.Duration) {
	ov := c.ov
	if ov == nil {
		return
	}
	for k, until := range ov.suppressed {
		if now >= until {
			delete(ov.suppressed, k)
		}
	}
	for mac, b := range ov.srcBuckets {
		if now-b.last > srcBucketIdle {
			delete(ov.srcBuckets, mac)
		}
	}
}
