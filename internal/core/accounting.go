package core

import (
	"livesec/internal/netpkt"
	"livesec/internal/openflow"
)

// Service-aware traffic statistics (§IV.C): "LiveSec controller can
// further master the network traffic distribution and service-aware
// statistics". Data-plane counters come back with every FLOW_REMOVED
// notification (the controller sets OFPFF_SEND_FLOW_REM on the entries
// it installs at the flow's ingress switch), and are accumulated per
// user here.

// UserTraffic is the accumulated data-plane usage of one user.
type UserTraffic struct {
	Flows   uint64 `json:"flows"`
	Packets uint64 `json:"packets"`
	Bytes   uint64 `json:"bytes"`
}

// handleFlowRemoved folds expired-entry counters into the per-user
// accounting. Only a live session's ingress entry is counted — its exact
// match is the session's key, on the switch its record names — so
// steering legs do not double-count, and a host that has moved since
// still has its old session forgotten.
func (c *Controller) handleFlowRemoved(st *switchState, fr *openflow.FlowRemoved) {
	if st.resyncing && fr.Reason == openflow.RemovedDelete {
		// The resync wipe floods FlowRemoved for every entry it clears;
		// those entries were just reinstalled and their sessions are
		// still live.
		return
	}
	st.shadowRemove(fr)
	if fr.Cookie == dropCookie || fr.Match.Wildcards != 0 {
		return // drops carry no user traffic; only exact entries attribute
	}
	key := fr.Match.Key
	if rec, ok := c.sessions[key]; !ok || rec.dpid != st.dpid {
		return // not a live session's ingress entry
	}
	// The ingress entry is gone: the session is over.
	c.forgetSession(key)
	if c.usage == nil {
		c.usage = make(map[netpkt.MAC]*UserTraffic)
	}
	u := c.usage[key.EthSrc]
	if u == nil {
		u = &UserTraffic{}
		c.usage[key.EthSrc] = u
	}
	u.Flows++
	u.Packets += fr.Packets
	u.Bytes += fr.Bytes
}

// UserUsage returns accumulated per-user traffic statistics (copy).
func (c *Controller) UserUsage() map[netpkt.MAC]UserTraffic {
	out := make(map[netpkt.MAC]UserTraffic, len(c.usage))
	for mac, u := range c.usage {
		out[mac] = *u
	}
	return out
}
