package main

import (
	"math/rand"

	"livesec/internal/flow"
	"livesec/internal/netpkt"
	"livesec/internal/openflow"
)

// hitSelectors is the number of (source, destination, port) selectors
// the wire_hit workload cycles through on each switch.
const hitSelectors = 64

// setupInput is one generated flow setup: the first TCP segment of a
// new flow from a host behind switch sw to a host behind the peer.
type setupInput struct {
	sw       int
	id       uint32 // BufferID; unique per switch
	src, dst wireHost
	sport    uint16 // initiator ports are ≥ 32768, service ports below
	dport    uint16
	// probe marks a set-up readiness probe: the controller drops an
	// unroutable first packet silently, so an unanswered probe is not a
	// failure.
	probe bool
}

// packet is the segment as the ingress switch would see it.
func (in setupInput) packet() *netpkt.Packet {
	return netpkt.NewTCP(in.src.mac, in.dst.mac, in.src.ip, in.dst.ip, in.sport, in.dport, wirePayload)
}

// packetIn is the message the ingress switch raises.
func (in setupInput) packetIn() *openflow.PacketIn {
	return &openflow.PacketIn{
		XID: in.id, BufferID: in.id, InPort: in.src.port,
		Reason: openflow.ReasonNoMatch, Data: in.packet().Marshal(),
	}
}

var wirePayload = []byte("GET / HTTP/1.1\r\nHost: bench\r\n\r\n")

// expectedFM is one flow-mod the controller must send for a setup.
type expectedFM struct {
	sw       int // switch that must receive it
	key      flow.Key
	priority uint16
	outPort  uint32
}

// Priorities the controller gives forwarding and arrival entries
// (internal/core: prioForward, prioSteer).
const (
	prioForward uint16 = 200
	prioSteer   uint16 = 300
)

// expected lists the four entries of a two-switch direct session: the
// forward ingress entry and the reverse arrival entry on the ingress
// switch, the forward arrival entry and the reverse ingress entry on the
// peer.
func (in setupInput) expected() [4]expectedFM {
	fwd := flow.KeyOf(in.src.port, in.packet())
	fwdArrive := fwd
	fwdArrive.InPort = uplinkPort
	rev := fwd.Reverse(in.dst.port)
	revArrive := rev
	revArrive.InPort = uplinkPort
	peer := 1 - in.sw
	return [4]expectedFM{
		{sw: in.sw, key: fwd, priority: prioForward, outPort: uplinkPort},
		{sw: peer, key: fwdArrive, priority: prioSteer, outPort: in.dst.port},
		{sw: peer, key: rev, priority: prioForward, outPort: uplinkPort},
		{sw: in.sw, key: revArrive, priority: prioSteer, outPort: in.src.port},
	}
}

// wireGen draws the setups of a wire workload from a seed. Each switch
// has its own stream, so the inputs a switch offers do not depend on
// how the two connections interleave at run time.
type wireGen struct {
	miss  bool
	hosts [2][]wireHost
	rng   [2]*rand.Rand
	next  [2]uint32
	// sport is the next source port of a hit selector's flows.
	sport [2]uint16
	// dport[sw][src*n+dst] is the next never-offered destination port of
	// that host pair (miss workload).
	dport [2][]uint16
}

func newWireGen(seed int64, miss bool, hosts [2][]wireHost) *wireGen {
	g := &wireGen{miss: miss, hosts: hosts}
	for sw := range g.rng {
		g.rng[sw] = rand.New(rand.NewSource(seed*2 + int64(sw) + 1))
		g.sport[sw] = uint16(g.rng[sw].Intn(1 << 15))
		if miss {
			g.dport[sw] = make([]uint16, len(hosts[sw])*len(hosts[1-sw]))
		}
	}
	return g
}

// probePort is the service port of readiness probes; no workload flow
// uses it, so probes share no cache entry with the timed setups.
const probePort = 79

// probe returns a flow from the last host behind sw to the last host
// behind the peer, which the controller can route only after it has
// learnt every host announced before them.
func (g *wireGen) probe(sw, try int) setupInput {
	g.next[sw]++
	src, dst := g.hosts[sw], g.hosts[1-sw]
	return setupInput{sw: sw, id: g.next[sw], probe: true,
		src: src[len(src)-1], dst: dst[len(dst)-1],
		sport: 1<<15 | uint16(try), dport: probePort}
}

// draw returns switch sw's next setup.
func (g *wireGen) draw(sw int) setupInput {
	r := g.rng[sw]
	g.next[sw]++
	in := setupInput{sw: sw, id: g.next[sw]}
	src, dst := g.hosts[sw], g.hosts[1-sw]
	if !g.miss {
		// Host i talks to host i behind the peer on port 80; only the
		// source port is new, so the decision and the plan are cached.
		i := r.Intn(min(hitSelectors, len(src), len(dst)))
		in.src, in.dst, in.dport = src[i], dst[i], 80
		in.sport = 1<<15 | g.sport[sw]
		g.sport[sw] = (g.sport[sw] + 1) & (1<<15 - 1)
		return in
	}
	// A (source, destination, port) triple never offered before: the
	// decision cache and the plan cache both miss.
	si, di := r.Intn(len(src)), r.Intn(len(dst))
	next := &g.dport[sw][si*len(dst)+di]
	in.src, in.dst = src[si], dst[di]
	in.dport = 1024 + *next
	*next++
	in.sport = 1<<15 | uint16(r.Intn(1<<15))
	return in
}
