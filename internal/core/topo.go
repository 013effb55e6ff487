package core

import (
	"sort"
)

// TopologySnapshot is the logical-topology view served to the WebUI
// (§IV.D): AS switches, discovered full-mesh links, host locations, and
// service elements.
type TopologySnapshot struct {
	Switches []SwitchInfo  `json:"switches"`
	Links    []Link        `json:"links"`
	Hosts    []HostInfo    `json:"hosts"`
	Elements []ElementJSON `json:"elements"`
	// Loads carries per-port utilization when stats polling is active.
	Loads []PortLoad `json:"loads,omitempty"`
	// Tables carries per-switch flow-table and microflow-cache counters
	// when stats polling is active.
	Tables []TableStats `json:"tables,omitempty"`
	// Overload carries ingress-pipeline and circuit-breaker state.
	Overload OverloadInfo `json:"overload"`
}

// OverloadInfo is the overload-protection view of the snapshot: current
// ingress backlog, cumulative shed/suppression counters, and per-element
// breaker states.
type OverloadInfo struct {
	CtrlBacklog     int           `json:"ctrlBacklog"`
	PacketInBacklog int           `json:"packetInBacklog"`
	PacketInsShed   uint64        `json:"packetInsShed"`
	SuppressRules   uint64        `json:"suppressRules"`
	Breakers        []BreakerInfo `json:"breakers,omitempty"`
}

// SwitchInfo describes one AS switch.
type SwitchInfo struct {
	DPID  uint64 `json:"dpid"`
	Name  string `json:"name"`
	Ports int    `json:"ports"`
}

// HostInfo describes one attached host.
type HostInfo struct {
	MAC  string `json:"mac"`
	IP   string `json:"ip"`
	DPID uint64 `json:"dpid"`
	Port uint32 `json:"port"`
	SE   uint64 `json:"se,omitempty"`
}

// ElementJSON describes one service element for the UI.
type ElementJSON struct {
	ID       uint64 `json:"id"`
	Service  string `json:"service"`
	DPID     uint64 `json:"dpid"`
	Capacity uint64 `json:"capacityBps"`
	PPS      uint32 `json:"pps"`
	QueueLen uint32 `json:"queueLen"`
	Packets  uint64 `json:"packets"`
}

// Topology builds a consistent snapshot. APIHandler serves it on
// /topology under its sync, while the simulation is paused.
func (c *Controller) Topology() TopologySnapshot {
	var snap TopologySnapshot
	for dpid, st := range c.switches {
		snap.Switches = append(snap.Switches, SwitchInfo{DPID: dpid, Name: st.name, Ports: len(st.ports)})
	}
	sort.Slice(snap.Switches, func(i, j int) bool { return snap.Switches[i].DPID < snap.Switches[j].DPID })
	snap.Links = c.Links()
	for _, h := range c.sortedHosts() {
		snap.Hosts = append(snap.Hosts, HostInfo{
			MAC: h.MAC.String(), IP: h.IP.String(), DPID: h.DPID, Port: h.Port, SE: h.SEID,
		})
	}
	for _, se := range c.elemOrder {
		snap.Elements = append(snap.Elements, ElementJSON{
			ID: se.id, Service: se.service.String(), DPID: se.dpid,
			Capacity: se.capacity, PPS: se.load.PPS, QueueLen: se.load.QueueLen,
			Packets: se.load.Packets,
		})
	}
	ctrl, pis := c.IngressDepths()
	snap.Overload = OverloadInfo{
		CtrlBacklog:     ctrl,
		PacketInBacklog: pis,
		PacketInsShed:   c.stats.PacketInsShed,
		SuppressRules:   c.stats.SuppressRules,
		Breakers:        c.BreakerStates(),
	}
	snap.Tables = c.TableLoads()
	snap.Loads = c.PortLoads()
	sort.Slice(snap.Loads, func(i, j int) bool {
		if snap.Loads[i].DPID != snap.Loads[j].DPID {
			return snap.Loads[i].DPID < snap.Loads[j].DPID
		}
		return snap.Loads[i].Port < snap.Loads[j].Port
	})
	return snap
}
