package core

import (
	"math"
	"sort"
	"strconv"

	"livesec/internal/monitor"
	"livesec/internal/netpkt"
	"livesec/internal/openflow"
)

// lldpSrc is the controller-chosen source MAC for discovery frames.
var lldpSrc = netpkt.MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0xd1}

// DiscoverNow emits LLDP probes on every port of every switch (§III.C.1).
// The legacy fabric floods them between AS-switch uplink ports, so each
// received probe reveals one logical link of the full mesh.
func (c *Controller) DiscoverNow() {
	if c.holding {
		return // an outage (outage.go) sends nothing
	}
	for _, st := range c.sortedSwitches() {
		c.emitLLDP(st)
	}
}

func (c *Controller) emitLLDP(st *switchState) {
	if !st.ready {
		return
	}
	ports := make([]uint32, 0, len(st.ports))
	for no := range st.ports {
		ports = append(ports, no)
	}
	sort.Slice(ports, func(i, j int) bool { return ports[i] < ports[j] })
	for _, no := range ports {
		pkt := netpkt.NewLLDP(lldpSrc, st.dpid, no)
		c.sendPacketOut(st, &openflow.PacketOut{
			BufferID: openflow.NoBuffer,
			InPort:   openflow.PortNone,
			Actions:  openflow.Output(no),
			Data:     pkt.Marshal(),
		})
	}
}

// handleLLDP learns a logical link: the probe was emitted by
// (srcDPID, srcPort) and arrived at st:inPort.
func (c *Controller) handleLLDP(st *switchState, inPort uint32, l *netpkt.LLDP) {
	if !st.ready || l.ChassisID == st.dpid {
		// Not registered yet (features reply outstanding), or a
		// self-loop via fabric reflection; ignore.
		return
	}
	peer, ok := c.switches[l.ChassisID]
	if !ok {
		return
	}
	newLink := !st.uplinks[inPort] || st.peers[l.ChassisID] != inPort
	st.uplinks[inPort] = true
	st.peers[l.ChassisID] = inPort
	peer.uplinks[l.PortID] = true
	if newLink {
		// Topology change: cached install plans embed output ports chosen
		// from the peer table; clear them all (cache.go).
		c.cache.invalidateAll()
		c.record(monitor.Event{Type: monitor.EventLinkDiscover, Switch: st.dpid,
			Detail: linkName(l.ChassisID, l.PortID, st.dpid, inPort)})
	}
	// A port that carries inter-switch traffic cannot host an end system;
	// drop any stale host learned there.
	for mac, h := range c.hosts {
		if h.DPID == st.dpid && h.Port == inPort {
			delete(c.hosts, mac)
			if c.byIP[h.IP] == mac {
				delete(c.byIP, h.IP)
			}
		}
	}
}

func linkName(aDPID uint64, aPort uint32, bDPID uint64, bPort uint32) string {
	if aDPID > bDPID {
		aDPID, bDPID = bDPID, aDPID
		aPort, bPort = bPort, aPort
	}
	return linkString(aDPID, aPort, bDPID, bPort)
}

func linkString(aDPID uint64, aPort uint32, bDPID uint64, bPort uint32) string {
	return "link " +
		uitoa(aDPID) + ":" + uitoa(uint64(aPort)) + "<->" +
		uitoa(bDPID) + ":" + uitoa(uint64(bPort))
}

func uitoa(v uint64) string { return strconv.FormatUint(v, 10) }

// Links returns the discovered logical topology as (dpid, port, peer)
// triples, one per direction.
type Link struct {
	DPID uint64 `json:"dpid"`
	Port uint32 `json:"port"`
	Peer uint64 `json:"peer"`
}

// Links lists the discovered logical links in (dpid, peer) order.
func (c *Controller) Links() []Link {
	var out []Link
	for dpid, st := range c.switches {
		for peer, port := range st.peers {
			out = append(out, Link{DPID: dpid, Port: port, Peer: peer})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].DPID != out[j].DPID {
			return out[i].DPID < out[j].DPID
		}
		return out[i].Peer < out[j].Peer
	})
	return out
}

// FullMesh reports whether every pair of registered switches has a
// discovered logical link in both directions (the paper's full-mesh
// Access-Switching topology, §III.C.1).
func (c *Controller) FullMesh() bool {
	for _, st := range c.switches {
		for dpid := range c.switches {
			if dpid == st.dpid {
				continue
			}
			if _, ok := st.peers[dpid]; !ok {
				return false
			}
		}
	}
	return len(c.switches) > 0
}

// learnHost records or refreshes a host location (§III.C.2) and returns
// the entry. announce controls whether a gratuitous location
// announcement is pushed into the legacy fabric so unicast delivery to
// this host does not rely on flood-and-learn.
func (c *Controller) learnHost(st *switchState, port uint32, mac netpkt.MAC, ip netpkt.IPv4Addr, announce bool) *HostLoc {
	if st.uplinks[port] || mac.IsZero() || mac.IsBroadcast() {
		return nil
	}
	h, known := c.hosts[mac]
	moved := known && (h.DPID != st.dpid || h.Port != port)
	if !known {
		h = &HostLoc{MAC: mac}
		c.hosts[mac] = h
	}
	h.DPID = st.dpid
	h.Port = port
	h.LastSeen = c.eng.Now()
	if !ip.IsZero() {
		h.IP = ip
		c.byIP[ip] = mac
	}
	if !known || moved {
		c.record(monitor.Event{Type: monitor.EventUserJoin, Switch: st.dpid,
			User: mac.String(), IP: ip.String()})
		if moved {
			// Mobility: stale entries across the network reference the
			// old attachment; purge them so sessions re-establish here.
			// Invalidation trigger 1 (cache.go): cached plans route to the
			// old attachment point.
			c.purgeHostFlows(mac)
			c.cache.invalidateHost(mac)
		}
		if announce {
			c.announceHost(st, h)
		}
	}
	return h
}

// announceHost floods a gratuitous ARP for the host into the legacy
// fabric via the switch's uplink ports, teaching the learning switches
// the host's location before any unicast traffic needs it.
func (c *Controller) announceHost(st *switchState, h *HostLoc) {
	if len(st.uplinks) == 0 {
		return
	}
	g := netpkt.NewARPRequest(h.MAC, h.IP, h.IP) // gratuitous: target = self
	// One uplink reaches the whole fabric: the lowest port, so a switch
	// with two announces through the same one on every run.
	up := uint32(math.MaxUint32)
	for port := range st.uplinks {
		up = min(up, port)
	}
	c.sendPacketOut(st, &openflow.PacketOut{
		BufferID: openflow.NoBuffer,
		InPort:   openflow.PortNone,
		Actions:  openflow.Output(up),
		Data:     g.Marshal(),
	})
}
