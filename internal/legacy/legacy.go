// Package legacy implements the Legacy-Switching layer (§III.B): ordinary
// Ethernet learning switches interconnected into star, tree, or
// multi-path fabrics. The fabric is transparent to the Access-Switching
// layer above it: it only provides layer-2 reachability between AS switch
// ports, with loops removed by a spanning tree so that flooding
// terminates, matching the paper's reliance on STP/ECMP in the legacy
// network (§III.C.1).
package legacy

import (
	"fmt"
	"slices"
	"time"

	"livesec/internal/link"
	"livesec/internal/netpkt"
	"livesec/internal/sim"
)

// Hardware switching delay per frame (cut-through ASICs are faster, but
// the paper's building network is commodity store-and-forward gear).
const procDelay = 2 * time.Microsecond

// macAge is how long a learned MAC stays valid without traffic.
const macAge = 300 * time.Second

type learned struct {
	port uint32
	at   time.Duration
}

// switching is one frame inside the switch's processing delay.
type switching struct {
	pkt    *netpkt.Packet
	inPort uint32
}

// Switch is a classic transparent learning bridge.
type Switch struct {
	eng   *sim.Engine
	id    int
	name  string
	ports map[uint32]link.Endpoint
	// blocked ports neither learn nor forward (spanning-tree discard
	// state).
	blocked map[uint32]bool
	macs    map[netpkt.MAC]learned
	// groups holds ECMP port bundles (ecmp.go).
	groups map[uint32]*ecmpGroup

	// frames holds the frames inside the processing delay: each leaves at
	// now + procDelay, and now only moves forward, so they leave in
	// arrival order — what sim.Pipe requires.
	frames *sim.Pipe[switching]
	// portOrder caches the ascending port list flooding walks;
	// AttachPort invalidates it.
	portOrder []uint32

	// FloodedFrames counts frames sent by flooding (unknown unicast or
	// broadcast); the directory-proxy ablation reads it.
	FloodedFrames uint64
	// ForwardedFrames counts learned unicast forwards.
	ForwardedFrames uint64
}

// NewSwitch creates a learning switch.
func NewSwitch(eng *sim.Engine, id int, name string) *Switch {
	s := &Switch{
		eng:     eng,
		id:      id,
		name:    name,
		ports:   make(map[uint32]link.Endpoint),
		blocked: make(map[uint32]bool),
		macs:    make(map[netpkt.MAC]learned),
	}
	s.frames = sim.NewPipe(eng, s.forward)
	return s
}

// Name returns the switch name.
func (s *Switch) Name() string { return s.name }

// AttachPort registers local port no as this switch's end of l.
func (s *Switch) AttachPort(no uint32, l *link.Link) {
	s.ports[no] = l.From(s)
	s.portOrder = nil // port set changed; rebuild the flood order lazily
}

// sortedPorts lists port numbers ascending (deterministic flooding). The
// slice is cached across frames; callers must not modify or retain it.
func (s *Switch) sortedPorts() []uint32 {
	if s.portOrder == nil && len(s.ports) > 0 {
		s.portOrder = make([]uint32, 0, len(s.ports))
		for no := range s.ports {
			s.portOrder = append(s.portOrder, no)
		}
		slices.Sort(s.portOrder)
	}
	return s.portOrder
}

// Block puts a port in spanning-tree discard state.
func (s *Switch) Block(no uint32) { s.blocked[no] = true }

// Blocked reports whether a port is in discard state.
func (s *Switch) Blocked(no uint32) bool { return s.blocked[no] }

// Receive implements link.Node.
func (s *Switch) Receive(portNo uint32, pkt *netpkt.Packet) {
	if s.blocked[portNo] {
		return
	}
	now := s.eng.Now()
	if !pkt.EthSrc.IsZero() && !pkt.EthSrc.IsBroadcast() {
		// ECMP bundles learn on the group leader so any member reaches
		// the same next hop.
		s.macs[pkt.EthSrc] = learned{port: s.groupLeader(portNo), at: now}
	}
	s.frames.At(now+procDelay, switching{pkt, portNo})
}

func (s *Switch) forward(f switching) {
	inPort, pkt := f.inPort, f.pkt
	if !pkt.EthDst.IsBroadcast() {
		if l, ok := s.macs[pkt.EthDst]; ok && s.eng.Now()-l.at < macAge && !s.blocked[l.port] {
			if l.port != inPort && !s.sameGroup(l.port, inPort) {
				s.ForwardedFrames++
				// ECMP: spread flows across the bundle's members.
				s.ports[s.pickMember(l.port, pkt)].Send(pkt)
			}
			return
		}
	}
	// Unknown unicast or broadcast: flood all unblocked ports but the
	// ingress, in port order so simulations are deterministic; ECMP
	// bundles contribute only their leader so loops and duplicates
	// cannot form.
	for _, no := range s.sortedPorts() {
		if no == inPort || s.blocked[no] || s.sameGroup(no, inPort) {
			continue
		}
		if g, ok := s.groups[no]; ok && g.leader != no {
			continue // non-leader member of a bundle
		}
		s.FloodedFrames++
		s.ports[no].Send(pkt)
	}
}

// Fabric is a built legacy network: its switches, its inter-switch links,
// and a port allocator for attaching Access-Switching layer devices.
type Fabric struct {
	eng      *sim.Engine
	Switches []*Switch
	links    []*link.Link
	nextPort map[int]uint32
	// adjacency for the spanning-tree computation: inter-switch edges as
	// (switch index, port) pairs.
	edges []edge
}

type edge struct {
	a, b         int
	portA, portB uint32
	l            *link.Link
}

// NewFabric creates an empty fabric.
func NewFabric(eng *sim.Engine) *Fabric {
	return &Fabric{eng: eng, nextPort: make(map[int]uint32)}
}

// AddSwitch appends a new legacy switch and returns its index.
func (f *Fabric) AddSwitch(name string) int {
	idx := len(f.Switches)
	if name == "" {
		name = fmt.Sprintf("ls%d", idx)
	}
	f.Switches = append(f.Switches, NewSwitch(f.eng, idx, name))
	return idx
}

func (f *Fabric) allocPort(sw int) uint32 {
	f.nextPort[sw]++
	return f.nextPort[sw]
}

// Trunk connects two fabric switches with an inter-switch link.
func (f *Fabric) Trunk(a, b int, p link.Params) {
	pa, pb := f.allocPort(a), f.allocPort(b)
	l := link.Connect(f.eng, f.Switches[a], pa, f.Switches[b], pb, p)
	f.Switches[a].AttachPort(pa, l)
	f.Switches[b].AttachPort(pb, l)
	f.links = append(f.links, l)
	f.edges = append(f.edges, edge{a: a, b: b, portA: pa, portB: pb, l: l})
}

// Attach connects an external node (an AS switch port or a host) to
// fabric switch sw and returns the link. The caller wires its own side.
func (f *Fabric) Attach(sw int, node link.Node, nodePort uint32, p link.Params) *link.Link {
	pn := f.allocPort(sw)
	l := link.Connect(f.eng, f.Switches[sw], pn, node, nodePort, p)
	f.Switches[sw].AttachPort(pn, l)
	f.links = append(f.links, l)
	return l
}

// ComputeSpanningTree blocks redundant inter-switch links so flooding is
// loop-free, emulating STP converging on the legacy network. The tree is
// rooted at switch 0 and built breadth-first, so results are
// deterministic.
func (f *Fabric) ComputeSpanningTree() {
	if len(f.Switches) == 0 {
		return
	}
	adj := make(map[int][]edge)
	for _, e := range f.edges {
		adj[e.a] = append(adj[e.a], e)
		adj[e.b] = append(adj[e.b], e)
	}
	inTree := make(map[*link.Link]bool)
	visited := map[int]bool{0: true}
	queue := []int{0}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range adj[cur] {
			other := e.b
			if cur == e.b {
				other = e.a
			}
			if visited[other] {
				continue
			}
			visited[other] = true
			inTree[e.l] = true
			queue = append(queue, other)
		}
	}
	for _, e := range f.edges {
		if !inTree[e.l] {
			f.Switches[e.a].Block(e.portA)
			f.Switches[e.b].Block(e.portB)
		}
	}
}

// BlockedTrunks counts inter-switch links disabled by the spanning tree.
func (f *Fabric) BlockedTrunks() int {
	n := 0
	for _, e := range f.edges {
		if f.Switches[e.a].Blocked(e.portA) {
			n++
		}
	}
	return n
}

// NewStar builds a star fabric: one core switch and n edge switches, each
// uplinked to the core (the small-network design from §III.B).
func NewStar(eng *sim.Engine, n int, trunk link.Params) *Fabric {
	f := NewFabric(eng)
	core := f.AddSwitch("core")
	for i := 0; i < n; i++ {
		sw := f.AddSwitch(fmt.Sprintf("edge%d", i))
		f.Trunk(core, sw, trunk)
	}
	return f
}

// NewTree builds a two-tier tree: one core, spine aggregation switches,
// and leaf edge switches per aggregation switch — the FIT building's
// core + per-storey secondary switch layout (§V).
func NewTree(eng *sim.Engine, aggs, leavesPerAgg int, coreTrunk, aggTrunk link.Params) *Fabric {
	f := NewFabric(eng)
	core := f.AddSwitch("core")
	for a := 0; a < aggs; a++ {
		agg := f.AddSwitch(fmt.Sprintf("agg%d", a))
		f.Trunk(core, agg, coreTrunk)
		for l := 0; l < leavesPerAgg; l++ {
			leaf := f.AddSwitch(fmt.Sprintf("leaf%d-%d", a, l))
			f.Trunk(agg, leaf, aggTrunk)
		}
	}
	return f
}

// NewMesh builds a redundant fabric where every pair of n switches is
// directly trunked. The spanning tree must disable (n-1)(n-2)/2 links.
func NewMesh(eng *sim.Engine, n int, trunk link.Params) *Fabric {
	f := NewFabric(eng)
	for i := 0; i < n; i++ {
		f.AddSwitch("")
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			f.Trunk(i, j, trunk)
		}
	}
	f.ComputeSpanningTree()
	return f
}
