// Package legacy implements the Legacy-Switching layer (§III.B): ordinary
// Ethernet learning switches trunked into a loop-free fabric (NewStar
// builds the one every scenario uses). The fabric is transparent to the
// Access-Switching layer above it: it only provides layer-2 reachability
// between AS switch ports. The paper's STP and ECMP (§III.C.1) are not
// modelled: no scenario builds a loop or a bonded trunk.
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
	macs  map[netpkt.MAC]learned

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
		eng:   eng,
		id:    id,
		name:  name,
		ports: make(map[uint32]link.Endpoint),
		macs:  make(map[netpkt.MAC]learned),
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

// Receive implements link.Node.
func (s *Switch) Receive(portNo uint32, pkt *netpkt.Packet) {
	now := s.eng.Now()
	if !pkt.EthSrc.IsZero() && !pkt.EthSrc.IsBroadcast() {
		s.macs[pkt.EthSrc] = learned{port: portNo, at: now}
	}
	s.frames.At(now+procDelay, switching{pkt, portNo})
}

func (s *Switch) forward(f switching) {
	inPort, pkt := f.inPort, f.pkt
	if !pkt.EthDst.IsBroadcast() {
		if l, ok := s.macs[pkt.EthDst]; ok && s.eng.Now()-l.at < macAge {
			if l.port != inPort {
				s.ForwardedFrames++
				s.ports[l.port].Send(pkt)
			}
			return
		}
	}
	// Unknown unicast or broadcast: flood all ports but the ingress, in
	// port order so simulations are deterministic.
	for _, no := range s.sortedPorts() {
		if no == inPort {
			continue
		}
		s.FloodedFrames++
		s.ports[no].Send(pkt)
	}
}

// Fabric is a built legacy network: its switches and a port allocator
// for attaching Access-Switching layer devices.
type Fabric struct {
	eng      *sim.Engine
	Switches []*Switch
	nextPort map[int]uint32
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

// Trunk connects two fabric switches with an inter-switch link. Nothing
// breaks loops, so the trunks must form a tree.
func (f *Fabric) Trunk(a, b int, p link.Params) {
	pa, pb := f.allocPort(a), f.allocPort(b)
	l := link.Connect(f.eng, f.Switches[a], pa, f.Switches[b], pb, p)
	f.Switches[a].AttachPort(pa, l)
	f.Switches[b].AttachPort(pb, l)
}

// Attach connects an external node (an AS switch port or a host) to
// fabric switch sw and returns the link. The caller wires its own side.
func (f *Fabric) Attach(sw int, node link.Node, nodePort uint32, p link.Params) *link.Link {
	pn := f.allocPort(sw)
	l := link.Connect(f.eng, f.Switches[sw], pn, node, nodePort, p)
	f.Switches[sw].AttachPort(pn, l)
	return l
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
