// Package link models the physical layer of the simulated network: nodes
// with numbered ports joined by full-duplex links that impose bandwidth
// (store-and-forward serialization), propagation delay, and finite output
// queues with tail drop.
//
// Every throughput and latency number in the evaluation emerges from this
// model: a 100 Mbps access link caps a wired user at ~100 Mbps (E1), a
// shared 1 GbE service-host NIC caps 20 co-located service elements (E2),
// and extra software-switch hops add the LiveSec latency overhead (E5).
package link

import (
	"fmt"
	"time"

	"livesec/internal/netpkt"
	"livesec/internal/sim"
)

// Node is anything that can be attached to a link endpoint: a switch, a
// host, or a service element. Receive is invoked by the simulator when a
// packet finishes arriving on one of the node's ports.
type Node interface {
	// Receive handles a packet that arrived on the given local port.
	Receive(port uint32, pkt *netpkt.Packet)
}

// Params configures one link. The zero value means an ideal link:
// infinite bandwidth, zero delay, unbounded queue.
type Params struct {
	// BitsPerSec is the line rate in bits per second; 0 means infinite.
	BitsPerSec int64
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// QueueBytes bounds the transmit queue per direction; 0 means 256 KiB.
	QueueBytes int
}

// Common line rates.
const (
	Rate100M = 100_000_000
	Rate43M  = 43_000_000 // Pantou OF Wi-Fi air interface (paper §V.B.1)
	Rate1G   = 1_000_000_000
	Rate10G  = 10_000_000_000
)

const defaultQueueBytes = 256 << 10

// Stats are per-direction transmit counters.
type Stats struct {
	TxPackets uint64
	TxBytes   uint64
	Drops     uint64
}

// inFlight is one packet on the wire and the queue bytes it holds until
// it arrives.
type inFlight struct {
	pkt  *netpkt.Packet
	size int
}

// endpoint is one transmit direction of a link.
type endpoint struct {
	eng    *sim.Engine
	params Params
	// wire holds the packets in flight. Arrival is busyUntl plus the fixed
	// propagation delay, and busyUntl only moves forward, so arrivals are
	// in send order — what sim.Pipe requires.
	wire *sim.Pipe[inFlight]

	peer     *endpoint
	node     Node   // node attached at this end
	port     uint32 // port number on node
	up       bool
	busyUntl time.Duration // when the transmitter frees up
	queued   int           // bytes waiting or in transmission

	stats Stats
}

// Link is a full-duplex connection between two node ports.
type Link struct {
	a, b endpoint
	// baseBits remembers the configured line rate so SetRateScale can
	// degrade and later restore it.
	baseBits int64
}

// Connect attaches nodeA:portA to nodeB:portB with symmetric parameters
// and returns the link. Packets sent with Send(nodeA side) arrive at
// nodeB.Receive(portB, pkt) after queuing + serialization + propagation.
func Connect(eng *sim.Engine, nodeA Node, portA uint32, nodeB Node, portB uint32, p Params) *Link {
	if p.QueueBytes == 0 {
		p.QueueBytes = defaultQueueBytes
	}
	l := &Link{
		a:        endpoint{eng: eng, params: p, node: nodeA, port: portA, up: true},
		b:        endpoint{eng: eng, params: p, node: nodeB, port: portB, up: true},
		baseBits: p.BitsPerSec,
	}
	l.a.peer, l.a.wire = &l.b, sim.NewPipe(eng, l.a.arrive)
	l.b.peer, l.b.wire = &l.a, sim.NewPipe(eng, l.b.arrive)
	return l
}

// Endpoint selects a link direction by the sending node.
type Endpoint struct{ ep *endpoint }

// From returns the transmit endpoint whose sender is node; Send on it
// delivers to the other side. It panics if node is not attached, which
// indicates a wiring bug in topology construction.
func (l *Link) From(node Node) Endpoint {
	switch node {
	case l.a.node:
		return Endpoint{&l.a}
	case l.b.node:
		return Endpoint{&l.b}
	}
	panic(fmt.Sprintf("link: node %T not attached to this link", node))
}

// SetUp marks both directions of the link administratively up or down.
// Packets sent on a down link are dropped.
func (l *Link) SetUp(up bool) {
	l.a.up = up
	l.b.up = up
}

// SetRateScale sets both directions' line rate to f times the configured
// rate: 0 < f < 1 degrades the link, 1 restores it. Links configured with
// infinite bandwidth are unaffected. Packets already serialized keep
// their scheduled arrival; only subsequent transmissions see the new
// rate.
func (l *Link) SetRateScale(f float64) {
	if l.baseBits <= 0 || f <= 0 {
		return
	}
	bps := int64(float64(l.baseBits) * f)
	if bps < 1 {
		bps = 1
	}
	l.a.params.BitsPerSec = bps
	l.b.params.BitsPerSec = bps
}

// StatsFrom returns transmit stats for the direction whose sender is node.
func (l *Link) StatsFrom(node Node) Stats { return l.From(node).ep.stats }

// Send enqueues a packet for transmission toward the peer node. It models
// tail drop when the queue is full and store-and-forward serialization at
// the line rate. The packet pointer is delivered as-is; senders that
// retain the packet must Clone it first.
func (e Endpoint) Send(pkt *netpkt.Packet) {
	ep := e.ep
	if !ep.up {
		ep.stats.Drops++
		return
	}
	size := pkt.WireLen()
	if ep.queued+size > ep.params.QueueBytes {
		ep.stats.Drops++
		return
	}
	now := ep.eng.Now()
	start := ep.busyUntl
	if start < now {
		start = now
	}
	var txTime time.Duration
	if ep.params.BitsPerSec > 0 {
		txTime = time.Duration(int64(size) * 8 * int64(time.Second) / ep.params.BitsPerSec)
	}
	ep.busyUntl = start + txTime
	ep.queued += size
	ep.stats.TxPackets++
	ep.stats.TxBytes += uint64(size)
	ep.wire.At(ep.busyUntl+ep.params.Delay, inFlight{pkt, size})
}

// arrive runs when a packet reaches the far end: it releases the
// sender's queue bytes and delivers if the link is up at that moment.
func (ep *endpoint) arrive(f inFlight) {
	ep.queued -= f.size
	if peer := ep.peer; peer.up {
		peer.node.Receive(peer.port, f.pkt)
	}
}

// QueueDelay returns how long a packet enqueued now would wait before its
// transmission begins. Useful for congestion-aware tests.
func (e Endpoint) QueueDelay() time.Duration {
	d := e.ep.busyUntl - e.ep.eng.Now()
	if d < 0 {
		return 0
	}
	return d
}

// Stats returns this direction's counters.
func (e Endpoint) Stats() Stats { return e.ep.stats }
