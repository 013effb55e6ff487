package core

import (
	"livesec/internal/monitor"
	"livesec/internal/netpkt"
	"livesec/internal/openflow"
	"livesec/internal/service"
)

// DHCP side of the directory proxy (§III.C.2): broadcast DISCOVERs are
// intercepted at the ingress AS switch as packet-ins and answered by
// the controller from its global address pool — they never enter the
// legacy switching network.

// DHCPPool configures controller-managed address leasing; the zero
// value disables it.
type DHCPPool struct {
	// Base is the first assignable address.
	Base netpkt.IPv4Addr
	// Size is the number of assignable addresses.
	Size int
}

// leases tracks MAC → assigned IP; a re-requesting client keeps its
// address.
func (c *Controller) handleDHCP(st *switchState, inPort uint32, pkt *netpkt.Packet) {
	m, err := netpkt.ParseDHCP(pkt.Payload)
	if err != nil || m.Op != netpkt.DHCPDiscover {
		return
	}
	ip, ok := c.leaseFor(m.MAC)
	if !ok {
		c.record(monitor.Event{Type: monitor.EventDHCPExhausted, Switch: st.dpid,
			User: m.MAC.String()})
		return
	}
	// The lease is also a location record: the host joins here.
	c.learnHost(st, inPort, m.MAC, ip, true)
	ack := netpkt.NewDHCPAck(service.ControllerMAC, service.ControllerIP, m.MAC, ip, m.XID)
	c.sendPacketOut(st, &openflow.PacketOut{
		BufferID: openflow.NoBuffer,
		InPort:   openflow.PortNone,
		Actions:  openflow.Output(inPort),
		Data:     ack.Marshal(),
	})
	c.record(monitor.Event{Type: monitor.EventDHCPLease, Switch: st.dpid,
		User: m.MAC.String(), IP: ip.String()})
}

// leaseFor returns the client's address, allocating one on first sight.
func (c *Controller) leaseFor(mac netpkt.MAC) (netpkt.IPv4Addr, bool) {
	if c.cfg.DHCP.Size <= 0 {
		return netpkt.IPv4Addr{}, false
	}
	if ip, ok := c.leases[mac]; ok {
		return ip, true
	}
	if len(c.leases) >= c.cfg.DHCP.Size {
		return netpkt.IPv4Addr{}, false
	}
	ip := netpkt.IPFromUint32(c.cfg.DHCP.Base.Uint32() + uint32(len(c.leases)))
	c.leases[mac] = ip
	return ip, true
}
