// Package baseline implements the traditional security architecture the
// paper positions LiveSec against (Figure 1 and §I): a plain switching
// network with security middleboxes deployed inline at the Internet
// gateway. It exhibits the three weaknesses the paper lists — traffic
// between inside hosts never crosses a middlebox (poor end-to-end
// coverage), all north-south traffic funnels through one box (single
// point of bottleneck and failure), and the middlebox cannot be scaled
// out without re-wiring. The latency (E5) and bottleneck (E7)
// experiments compare LiveSec against this package.
package baseline

import (
	"time"

	"livesec/internal/host"
	"livesec/internal/ids"
	"livesec/internal/legacy"
	"livesec/internal/link"
	"livesec/internal/netpkt"
	"livesec/internal/sim"
)

// Middlebox is an inline, two-port security appliance. Traffic entering
// one port is inspected at a bounded rate and forwarded out the other;
// flows the IDS flags are dropped (a traditional inline IPS).
type Middlebox struct {
	eng *sim.Engine
	// CapacityBps is the appliance's processing rate.
	CapacityBps int64
	// PerPacket is the fixed inspection cost per packet.
	PerPacket time.Duration
	// Engine is the detection engine; nil forwards blindly.
	Engine *ids.Engine
	// QueueBytes bounds buffering (default 512 KiB).
	QueueBytes int

	ports     [2]link.Endpoint
	attached  [2]bool
	busyUntil time.Duration
	queued    int

	// blocked holds 5-tuples with alert verdicts; subsequent packets of
	// those flows are dropped inline.
	blocked map[fiveTuple]bool

	// Stats counters.
	Processed uint64
	Dropped   uint64
	Alerts    uint64
	Blocked   uint64
}

type fiveTuple struct {
	srcIP, dstIP     netpkt.IPv4Addr
	srcPort, dstPort uint16
	proto            netpkt.IPProto
}

func tupleOf(pkt *netpkt.Packet) (fiveTuple, bool) {
	if pkt.IP == nil {
		return fiveTuple{}, false
	}
	t := fiveTuple{srcIP: pkt.IP.Src, dstIP: pkt.IP.Dst, proto: pkt.IP.Proto}
	switch {
	case pkt.TCP != nil:
		t.srcPort, t.dstPort = pkt.TCP.SrcPort, pkt.TCP.DstPort
	case pkt.UDP != nil:
		t.srcPort, t.dstPort = pkt.UDP.SrcPort, pkt.UDP.DstPort
	}
	return t, true
}

// NewMiddlebox creates an inline appliance.
func NewMiddlebox(eng *sim.Engine, capacityBps int64, engine *ids.Engine) *Middlebox {
	return &Middlebox{
		eng:         eng,
		CapacityBps: capacityBps,
		// Dedicated appliances parse headers in ASIC/NPU hardware; the
		// per-packet CPU cost is far below the software elements'.
		PerPacket:  time.Microsecond,
		Engine:     engine,
		QueueBytes: 512 << 10,
		blocked:    make(map[fiveTuple]bool),
	}
}

// AttachPort wires one side of the appliance (0 = inside, 1 = outside).
func (m *Middlebox) AttachPort(side int, l *link.Link) {
	m.ports[side] = l.From(m)
	m.attached[side] = true
}

// Receive implements link.Node.
func (m *Middlebox) Receive(side uint32, pkt *netpkt.Packet) {
	if side > 1 {
		return
	}
	size := pkt.WireLen()
	if m.queued+size > m.QueueBytes {
		m.Dropped++
		return
	}
	now := m.eng.Now()
	start := m.busyUntil
	if start < now {
		start = now
	}
	cost := m.PerPacket
	if m.CapacityBps > 0 {
		cost += time.Duration(int64(size) * 8 * int64(time.Second) / m.CapacityBps)
	}
	m.busyUntil = start + cost
	m.queued += size
	out := 1 - side
	m.eng.At(m.busyUntil, func() {
		m.queued -= size
		m.forward(out, pkt)
	})
}

func (m *Middlebox) forward(out uint32, pkt *netpkt.Packet) {
	m.Processed++
	if m.Engine != nil {
		if t, ok := tupleOf(pkt); ok {
			if m.blocked[t] {
				m.Blocked++
				return
			}
			if alerts := m.Engine.Inspect(pkt); len(alerts) > 0 {
				m.Alerts += uint64(len(alerts))
				m.blocked[t] = true
				m.Blocked++
				return
			}
		}
	}
	if m.attached[out] {
		m.ports[out].Send(pkt)
	}
}

// Net is a traditional deployment: users on a legacy fabric, a single
// middlebox between the fabric and the Internet-side server.
type Net struct {
	Eng       *sim.Engine
	Fabric    *legacy.Fabric
	Middlebox *Middlebox
	Server    *host.Host
	Users     []*host.Host

	nextMAC uint64
}

// serverIP is the Internet-side server's address.
var serverIP = netpkt.IP(166, 111, 1, 1)

// Options configures the baseline network.
type Options struct {
	Seed int64
	// EdgeSwitches is the number of edge switches in the star (default 2).
	EdgeSwitches int
	// MiddleboxBps is the gateway appliance capacity (default 1 Gbps —
	// the "high-performance security middlebox" of §I).
	MiddleboxBps int64
	// Rules loads the middlebox IDS (empty = forward blindly).
	Rules string
	// WANDelay is the extra one-way delay to the server.
	WANDelay time.Duration
}

// New builds the baseline network.
func New(opts Options) (*Net, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.EdgeSwitches == 0 {
		opts.EdgeSwitches = 2
	}
	if opts.MiddleboxBps == 0 {
		opts.MiddleboxBps = link.Rate1G
	}
	eng := sim.NewEngine(opts.Seed)
	fabric := legacy.NewStar(eng, opts.EdgeSwitches, link.Params{BitsPerSec: link.Rate10G})

	var engine *ids.Engine
	if opts.Rules != "" {
		rules, err := ids.ParseRules(opts.Rules)
		if err != nil {
			return nil, err
		}
		engine = ids.NewEngine(rules)
	}
	mb := NewMiddlebox(eng, opts.MiddleboxBps, engine)
	// Inside port hangs off the fabric core (switch 0).
	inside := fabric.Attach(0, mb, 0, link.Params{BitsPerSec: link.Rate10G})
	mb.AttachPort(0, inside)
	// Outside port connects to the server over the WAN link.
	server := host.New(eng, "internet", netpkt.MACFromUint64(0xBB0001), serverIP)
	wan := link.Connect(eng, mb, 1, server, 0, link.Params{BitsPerSec: link.Rate10G, Delay: opts.WANDelay})
	mb.AttachPort(1, wan)
	server.Attach(wan)

	return &Net{Eng: eng, Fabric: fabric, Middlebox: mb, Server: server, nextMAC: 0xB0000}, nil
}

// AddUser attaches a wired user to edge switch idx (1-based within the
// star) with the standard 100 Mbps access link.
func (n *Net) AddUser(edge int, name string, ip netpkt.IPv4Addr) *host.Host {
	n.nextMAC++
	u := host.New(n.Eng, name, netpkt.MACFromUint64(n.nextMAC), ip)
	l := n.Fabric.Attach(edge, u, 0, link.Params{BitsPerSec: link.Rate100M})
	u.Attach(l)
	n.Users = append(n.Users, u)
	return u
}

// Run advances virtual time by d.
func (n *Net) Run(d time.Duration) error {
	return n.Eng.Run(n.Eng.Now() + d)
}
