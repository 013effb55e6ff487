package core

// The ingress pipeline: every control message reaches dispatch through
// it (accept → lanes → ingressServe). A reactive controller sets up every
// flow from a packet-in (§III.C), which makes packet-in volume its
// scaling bottleneck and classic DoS vector — one host generating novel
// flows can starve echo replies (falsely killing healthy switches,
// resilience.go) and stall every legitimate flow setup.
//
// Two orthogonal knobs model and defend this path; with neither, each
// message is served inline as it arrives:
//
//   - Config.PacketInCost gives each packet-in a serialized processing
//     cost on the controller (other message types ride free — their only
//     delay is the backlog ahead of them). With the cost alone, the
//     pipeline is the naive single FIFO: a storm builds a backlog that
//     delays echo replies past the keepalive budget.
//   - Config.OverloadProtection defends it:
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
// A controller outage (outage.go) holds the pipeline in place: a message
// is admitted once and charged PacketInCost once, except the packet-in
// whose timed service the failure interrupts. Everything is driven by the
// sim clock and deterministic: bucket refill is pure arithmetic on
// virtual elapsed time, and the lanes are plain FIFOs.

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

// ingressItem is one queued or parked (outage.go) control-channel
// message. at is the arrival time, where the message's flow-setup span
// starts.
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

// overloadState is the ingress pipeline's state, a value in Controller.
type overloadState struct {
	// busy is set while the server dispatches or charges PacketInCost
	// for serving, so a message accepted meanwhile only queues. Fail
	// bumps charge to void the completion of the service it interrupts.
	busy    bool
	serving ingressItem
	charge  uint64
	// ctrl is the priority lane (everything but packet-ins); data holds
	// admitted packet-ins, and in the naive FIFO everything else too.
	// Head-indexed slices so serving is O(1).
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

// IngressDepths reports the current ingress backlog: the control-lane
// length and the total queued packet-ins.
func (c *Controller) IngressDepths() (ctrl, packetIns int) {
	return len(c.ov.ctrl) - c.ov.ctrlHead, len(c.ov.data) - c.ov.dataHead
}

// accept is the pipeline entry: classify, admit, enqueue, and serve.
func (c *Controller) accept(it ingressItem) {
	ov := &c.ov
	pi, isPacketIn := it.m.(*openflow.PacketIn)
	switch {
	case !isPacketIn && (c.cfg.OverloadProtection || c.holding):
		// Priority lane: liveness and correctness traffic never waits
		// behind a storm, nor behind the packet-ins an outage holds.
		ov.ctrl = append(ov.ctrl, it)
	case !c.cfg.OverloadProtection:
		// Naive single-FIFO controller: everything shares one queue in
		// arrival order; only the PacketInCost model below applies.
		ov.data = append(ov.data, it)
	default:
		if !c.admitPacketIn(it.st, pi) {
			return
		}
		ov.perSwitch[it.st.dpid]++
		ov.data = append(ov.data, it)
	}
	c.ingressServe()
}

// admitPacketIn runs the token buckets and the queue bound. A shed
// verdict counts, attributes (source budget, switch budget, overflow),
// and may install a suppression entry for the offending source.
func (c *Controller) admitPacketIn(st *switchState, pi *openflow.PacketIn) bool {
	ov := &c.ov
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
		c.obsShed(st, src, haveSrc)
		return false
	}
	if ov.perSwitch[st.dpid] >= ingressQueueCap {
		c.stats.PacketInsShed++
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
	ov := &c.ov
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

// ingressServe drains the lanes unless a server already runs: control
// lane strictly first, then packet-ins. Zero-cost items dispatch inline;
// a packet-in with a modeled cost occupies the (single-threaded)
// controller for PacketInCost of virtual time before the next item is
// served. While an outage holds the pipeline it serves no packet-in.
func (c *Controller) ingressServe() {
	ov := &c.ov
	for !ov.busy {
		var it ingressItem
		isPacketIn := false
		switch {
		case ov.ctrlHead < len(ov.ctrl):
			it = ov.ctrl[ov.ctrlHead]
			ov.ctrl[ov.ctrlHead] = ingressItem{}
			ov.ctrlHead++
		case ov.dataHead < len(ov.data):
			it = ov.data[ov.dataHead]
			if _, isPacketIn = it.m.(*openflow.PacketIn); isPacketIn && c.holding {
				return
			}
			ov.data[ov.dataHead] = ingressItem{}
			ov.dataHead++
			if isPacketIn && c.cfg.OverloadProtection {
				ov.perSwitch[it.st.dpid]--
			}
		default:
			ov.ctrl, ov.ctrlHead = ov.ctrl[:0], 0
			ov.data, ov.dataHead = ov.data[:0], 0
			return
		}
		ov.busy = true
		if !isPacketIn || c.cfg.PacketInCost <= 0 {
			c.dispatch(it)
			ov.busy = false
			continue
		}
		ov.serving = it
		charge := ov.charge
		c.eng.Schedule(c.cfg.PacketInCost, func() {
			if ov.charge == charge {
				ov.serving = ingressItem{}
				c.dispatch(it)
				ov.busy = false
				c.ingressServe()
			}
		})
	}
}

// overloadHousekeep reclaims expired suppression records and idle
// per-source buckets (bounding state under storms of spoofed sources).
// Pure map cleanup: no emissions, so deletion order is irrelevant.
func (c *Controller) overloadHousekeep(now time.Duration) {
	ov := &c.ov
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
