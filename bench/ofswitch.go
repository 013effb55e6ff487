package main

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"livesec/internal/netpkt"
	"livesec/internal/openflow"
)

// uplinkPort is the port every emulated switch faces the legacy fabric
// with; the controller's arrival entries match on it.
const uplinkPort uint32 = 1000

// wireHost is one emulated end system behind an emulated switch.
type wireHost struct {
	mac  netpkt.MAC
	ip   netpkt.IPv4Addr
	port uint32
}

// wireHosts returns the n hosts behind switch sw (0 or 1): host j sits
// on access port j+1 with an address that encodes (sw, j).
func wireHosts(sw, n int) []wireHost {
	hs := make([]wireHost, n)
	for j := range hs {
		id := j + 1
		hs[j] = wireHost{
			mac:  netpkt.MACFromUint64(uint64(0xA0+sw)<<24 | uint64(id)),
			ip:   netpkt.IP(10, byte(sw+1), byte(id>>8), byte(id)),
			port: uint32(id),
		}
	}
	return hs
}

// ofSwitch is a minimal OpenFlow 1.0 switch client in the manner of
// cmd/livesecd/demo.go: it answers the features request and echoes,
// carries LLDP packet-outs sent to its uplink across to the peer's
// uplink (the transparent legacy fabric), and hands every flow-mod and
// buffered packet-out to the sink. It keeps no flow table.
type ofSwitch struct {
	idx   int
	dpid  uint64
	name  string
	hosts []wireHost
	conn  openflow.Conn
	peer  *ofSwitch

	// sink observes what the controller programs. Both run on the
	// connection's reader goroutine.
	onFlowMod   func(sw int, fm *openflow.FlowMod, at time.Time)
	onPacketOut func(sw int, po *openflow.PacketOut, at time.Time)

	featuresAt  atomic.Int64 // unix ns of the features reply, 0 before
	lldpRelayed atomic.Int64 // LLDP probes carried to the peer
	flowMods    atomic.Int64
}

func newOFSwitch(idx int, rwc io.ReadWriteCloser, hosts []wireHost) *ofSwitch {
	return &ofSwitch{
		idx:   idx,
		dpid:  uint64(101 + idx),
		name:  fmt.Sprintf("bench-sw%d", idx+1),
		hosts: hosts,
		conn:  openflow.NewNetConn(rwc),
	}
}

// start begins the protocol exchange; the peer must already be wired.
func (s *ofSwitch) start() {
	s.conn.SetHandler(s.handle)
	s.conn.Send(&openflow.Hello{XID: 1})
}

func (s *ofSwitch) handle(m openflow.Message) {
	switch msg := m.(type) {
	case *openflow.FeaturesRequest:
		ports := make([]openflow.PortDesc, 0, len(s.hosts)+1)
		for _, h := range s.hosts {
			ports = append(ports, openflow.PortDesc{No: h.port,
				MAC: netpkt.MACFromUint64(s.dpid<<16 | uint64(h.port)), Name: fmt.Sprintf("%s-p%d", s.name, h.port)})
		}
		ports = append(ports, openflow.PortDesc{No: uplinkPort,
			MAC: netpkt.MACFromUint64(s.dpid<<16 | uint64(uplinkPort)), Name: fmt.Sprintf("%s-p%d", s.name, uplinkPort)})
		s.conn.Send(&openflow.FeaturesReply{XID: msg.XID, DPID: s.dpid, NTables: 1, Ports: ports})
		s.featuresAt.Store(time.Now().UnixNano())
	case *openflow.EchoRequest:
		s.conn.Send(&openflow.EchoReply{XID: msg.XID, Data: msg.Data})
	case *openflow.BarrierRequest:
		s.conn.Send(&openflow.BarrierReply{XID: msg.XID})
	case *openflow.FlowMod:
		s.flowMods.Add(1)
		if s.onFlowMod != nil {
			s.onFlowMod(s.idx, msg, time.Now())
		}
	case *openflow.PacketOut:
		if msg.BufferID != openflow.NoBuffer {
			if s.onPacketOut != nil {
				s.onPacketOut(s.idx, msg, time.Now())
			}
			return
		}
		s.relayLLDP(msg)
	}
}

// relayLLDP surfaces an LLDP probe sent out of the uplink at the peer's
// uplink, which is how the controller learns the logical link.
func (s *ofSwitch) relayLLDP(po *openflow.PacketOut) {
	toUplink := false
	for _, a := range po.Actions {
		if out, ok := a.(openflow.ActionOutput); ok && out.Port == uplinkPort {
			toUplink = true
		}
	}
	if !toUplink || s.peer == nil {
		return
	}
	pkt, err := netpkt.Unmarshal(po.Data)
	if err != nil || pkt.LLDP == nil {
		return
	}
	s.peer.conn.Send(&openflow.PacketIn{
		XID: 2, BufferID: openflow.NoBuffer,
		InPort: uplinkPort, Reason: openflow.ReasonNoMatch,
		Data: po.Data,
	})
	s.lldpRelayed.Add(1)
}

// announce raises one gratuitous-ARP packet-in per host, which is how
// the controller learns host locations.
func (s *ofSwitch) announce() {
	for _, h := range s.hosts {
		s.conn.Send(&openflow.PacketIn{
			XID: 3, BufferID: openflow.NoBuffer,
			InPort: h.port, Reason: openflow.ReasonNoMatch,
			Data: netpkt.NewARPRequest(h.mac, h.ip, h.ip).Marshal(),
		})
	}
}
