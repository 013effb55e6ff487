package core

import (
	"sort"
	"time"

	"livesec/internal/monitor"
	"livesec/internal/openflow"
)

// Link-load monitoring (§IV.D: the WebUI shows "load condition of links
// and various service elements"). The controller polls port statistics
// from every switch and derives per-port utilization rates; the
// topology snapshot and the event store expose them.

// PortLoad is the derived utilization of one switch port.
type PortLoad struct {
	DPID   uint64  `json:"dpid"`
	Port   uint32  `json:"port"`
	RxMbps float64 `json:"rxMbps"`
	TxMbps float64 `json:"txMbps"`
	Uplink bool    `json:"uplink"`
}

type portSample struct {
	rxBytes, txBytes uint64
	at               time.Duration
}

// TableStats is the per-switch flow-table and microflow-cache health
// the WebUI shows next to link loads: how many entries are installed,
// how often the pipeline consulted the table, and how effective the
// exact-match microflow cache in front of it is.
type TableStats struct {
	DPID                   uint64 `json:"dpid"`
	Active                 uint32 `json:"active"`
	Lookups                uint64 `json:"lookups"`
	Matched                uint64 `json:"matched"`
	MicroflowHits          uint64 `json:"microflowHits"`
	MicroflowMisses        uint64 `json:"microflowMisses"`
	MicroflowInvalidations uint64 `json:"microflowInvalidations"`
}

// StartStatsPolling begins periodic port- and table-stats collection.
// Call after Start; stops with Shutdown.
func (c *Controller) StartStatsPolling(period time.Duration) {
	if period <= 0 {
		period = time.Second
	}
	if c.portSamples == nil {
		c.portSamples = make(map[[2]uint64]portSample)
		c.portLoads = make(map[[2]uint64]PortLoad)
	}
	if c.tableStats == nil {
		c.tableStats = make(map[uint64]TableStats)
	}
	c.stops = append(c.stops, c.eng.Ticker(period, func() {
		if c.holding {
			return
		}
		for _, st := range c.sortedSwitches() {
			if st.ready {
				st.conn.Send(&openflow.StatsRequest{XID: c.xid(), Kind: openflow.StatsPort})
				st.conn.Send(&openflow.StatsRequest{XID: c.xid(), Kind: openflow.StatsTable})
			}
		}
	}))
}

// handleTableStats folds a table-stats reply into the per-switch view.
func (c *Controller) handleTableStats(st *switchState, reply *openflow.StatsReply) {
	if c.tableStats == nil || len(reply.Tables) == 0 {
		return
	}
	ts := reply.Tables[0]
	c.tableStats[st.dpid] = TableStats{
		DPID:                   st.dpid,
		Active:                 ts.ActiveCount,
		Lookups:                ts.LookupCount,
		Matched:                ts.MatchedCount,
		MicroflowHits:          ts.MicroHits,
		MicroflowMisses:        ts.MicroMisses,
		MicroflowInvalidations: ts.MicroInvalidations,
	}
}

// TableLoads returns the latest per-switch table and microflow-cache
// statistics, ordered by datapath ID.
func (c *Controller) TableLoads() []TableStats {
	out := make([]TableStats, 0, len(c.tableStats))
	for _, ts := range c.tableStats {
		out = append(out, ts)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DPID < out[j].DPID })
	return out
}

// handlePortStats folds a port-stats reply into the load table.
func (c *Controller) handlePortStats(st *switchState, reply *openflow.StatsReply) {
	now := c.eng.Now()
	for _, ps := range reply.Ports {
		key := [2]uint64{st.dpid, uint64(ps.PortNo)}
		prev, ok := c.portSamples[key]
		c.portSamples[key] = portSample{rxBytes: ps.RxBytes, txBytes: ps.TxBytes, at: now}
		if !ok || now <= prev.at {
			continue
		}
		dt := (now - prev.at).Seconds()
		load := PortLoad{
			DPID:   st.dpid,
			Port:   ps.PortNo,
			RxMbps: float64(ps.RxBytes-prev.rxBytes) * 8 / dt / 1e6,
			TxMbps: float64(ps.TxBytes-prev.txBytes) * 8 / dt / 1e6,
			Uplink: st.uplinks[ps.PortNo],
		}
		c.portLoads[key] = load
		// Surface heavy links as events (the Figure 8 "high utilization"
		// observation); threshold: 50 Mbps on an access port.
		if !load.Uplink && (load.RxMbps > 50 || load.TxMbps > 50) {
			c.record(monitor.Event{Type: monitor.EventLoadReport, Switch: st.dpid,
				Detail: "high utilization on port " + uitoa(uint64(ps.PortNo))})
		}
	}
}

// PortLoads returns the latest derived per-port rates.
func (c *Controller) PortLoads() []PortLoad {
	out := make([]PortLoad, 0, len(c.portLoads))
	for _, l := range c.portLoads {
		out = append(out, l)
	}
	return out
}
