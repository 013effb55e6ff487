package main

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"livesec/internal/netpkt"
	"livesec/internal/openflow"
)

// demoSwitch is a minimal OpenFlow switch client used by -demo: it
// completes the handshake, loops LLDP packet-outs to its peer through an
// emulated legacy fabric (so the controller discovers the logical link),
// raises packet-ins for its attached host, and prints every flow-mod it
// receives. It keeps no flow table — it only demonstrates the protocol
// exchange over real TCP.
type demoSwitch struct {
	name    string
	dpid    uint64
	hostMAC netpkt.MAC
	hostIP  netpkt.IPv4Addr

	conn     openflow.Conn
	peer     *demoSwitch
	flowMods atomic.Int64
}

const (
	demoHostPort   uint32 = 1
	demoUplinkPort uint32 = 1000
)

func newDemoSwitch(addr, name string, dpid uint64, hostIP netpkt.IPv4Addr) (*demoSwitch, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &demoSwitch{
		name:    name,
		dpid:    dpid,
		hostMAC: netpkt.MACFromUint64(dpid * 100),
		hostIP:  hostIP,
		conn:    openflow.NewNetConn(c),
	}, nil
}

// start begins the protocol exchange. It must run after the peer link is
// wired: the reader goroutine dereferences peer on LLDP packet-outs.
func (s *demoSwitch) start() {
	s.conn.SetHandler(s.handle)
	s.conn.Send(&openflow.Hello{XID: 1})
}

func (s *demoSwitch) handle(m openflow.Message) {
	switch msg := m.(type) {
	case *openflow.FeaturesRequest:
		s.conn.Send(&openflow.FeaturesReply{
			XID: msg.XID, DPID: s.dpid, NTables: 1,
			Ports: []openflow.PortDesc{
				{No: demoHostPort, MAC: netpkt.MACFromUint64(s.dpid), Name: s.name + "-p1"},
				{No: demoUplinkPort, MAC: netpkt.MACFromUint64(s.dpid + 1), Name: s.name + "-p1000"},
			},
		})
	case *openflow.EchoRequest:
		s.conn.Send(&openflow.EchoReply{XID: msg.XID, Data: msg.Data})
	case *openflow.PacketOut:
		s.handlePacketOut(msg)
	case *openflow.FlowMod:
		s.flowMods.Add(1)
		fmt.Printf("demo %s: FLOW_MOD prio=%d actions=%d %s\n",
			s.name, msg.Priority, len(msg.Actions), msg.Match)
	}
}

// handlePacketOut emulates the data plane: LLDP probes sent to the
// uplink surface at the peer switch's uplink (the transparent legacy
// fabric); everything else is reported.
func (s *demoSwitch) handlePacketOut(po *openflow.PacketOut) {
	pkt, err := netpkt.Unmarshal(po.Data)
	if err != nil || s.peer == nil {
		return
	}
	for _, a := range po.Actions {
		out, ok := a.(openflow.ActionOutput)
		if !ok {
			continue
		}
		if out.Port == demoUplinkPort && pkt.LLDP != nil {
			s.peer.conn.Send(&openflow.PacketIn{
				XID: 2, BufferID: openflow.NoBuffer,
				InPort: demoUplinkPort, Reason: openflow.ReasonNoMatch,
				Data: po.Data,
			})
		}
	}
}

// raisePacketIn submits a frame from the attached host.
func (s *demoSwitch) raisePacketIn(pkt *netpkt.Packet) {
	s.conn.Send(&openflow.PacketIn{
		XID: 3, BufferID: openflow.NoBuffer,
		InPort: demoHostPort, Reason: openflow.ReasonNoMatch,
		Data: pkt.Marshal(),
	})
}

// runDemo connects two demo switches and walks the control path:
// handshake → LLDP discovery → host ARP learning → flow installation.
func runDemo(addr string) error {
	a, err := newDemoSwitch(addr, "demo-sw1", 101, netpkt.IP(10, 50, 0, 1))
	if err != nil {
		return err
	}
	b, err := newDemoSwitch(addr, "demo-sw2", 102, netpkt.IP(10, 50, 0, 2))
	if err != nil {
		return err
	}
	a.peer, b.peer = b, a
	a.start()
	b.start()

	// Give the handshake and the first LLDP round a moment; livesecd's
	// controller probes every switch port after features exchange.
	time.Sleep(300 * time.Millisecond)

	// Hosts announce via ARP (the controller's location discovery).
	a.raisePacketIn(netpkt.NewARPRequest(a.hostMAC, a.hostIP, b.hostIP))
	time.Sleep(100 * time.Millisecond)
	b.raisePacketIn(netpkt.NewARPRequest(b.hostMAC, b.hostIP, a.hostIP))
	time.Sleep(100 * time.Millisecond)

	// First packet of a TCP flow host-a → host-b triggers end-to-end
	// routing: flow mods land on both switches.
	a.raisePacketIn(netpkt.NewTCP(a.hostMAC, b.hostMAC, a.hostIP, b.hostIP, 40000, 80,
		[]byte("GET / HTTP/1.1\r\n")))
	time.Sleep(300 * time.Millisecond)

	aMods, bMods := a.flowMods.Load(), b.flowMods.Load()
	fmt.Printf("demo: flow mods received sw1=%d sw2=%d\n", aMods, bMods)
	if aMods == 0 || bMods == 0 {
		return fmt.Errorf("controller did not install the end-to-end path")
	}
	return nil
}
