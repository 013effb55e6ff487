package core

import (
	"testing"
	"time"

	"livesec/internal/monitor"
	"livesec/internal/openflow"
)

// portReply delivers one port's counters from switch dpid, as polled.
func (r *setupRig) portReply(dpid uint64, port uint32, rx, tx uint64) {
	r.conns[dpid].handler(&openflow.StatsReply{Kind: openflow.StatsPort,
		Ports: []openflow.PortStat{{PortNo: port, RxBytes: rx, TxBytes: tx}}})
}

// tableReply delivers switch dpid's flow-table counters, as polled.
func (r *setupRig) tableReply(dpid uint64, active uint32) {
	r.conns[dpid].handler(&openflow.StatsReply{Kind: openflow.StatsTable,
		Tables: []openflow.TableStat{{ActiveCount: active}}})
}

// runTo advances the rig's virtual clock to at.
func (r *setupRig) runTo(tb testing.TB, at time.Duration) {
	tb.Helper()
	if err := r.c.eng.Run(at); err != nil {
		tb.Fatal(err)
	}
}

// A switch that leaves takes its port loads and table stats off the
// topology snapshot; the switch that stays keeps its own.
func TestRemoveSwitchForgetsStats(t *testing.T) {
	r := newSetupRig(t, Config{}, []uint64{1, 2}, nil, nil)
	r.c.StartStatsPolling(time.Second)
	for _, dpid := range []uint64{1, 2} {
		r.portReply(dpid, 1, 0, 0)
		r.portReply(dpid, rigUplink, 0, 0)
		r.tableReply(dpid, 3)
	}
	r.runTo(t, time.Second)
	for _, dpid := range []uint64{1, 2} {
		r.portReply(dpid, 1, 125_000, 125_000)
		r.portReply(dpid, rigUplink, 125_000, 125_000)
	}
	count := func(dpid uint64) (loads, tables int) {
		snap := r.c.Topology()
		for _, l := range snap.Loads {
			if l.DPID == dpid {
				loads++
			}
		}
		for _, ts := range snap.Tables {
			if ts.DPID == dpid {
				tables++
			}
		}
		return loads, tables
	}
	if loads, tables := count(2); loads != 2 || tables != 1 {
		t.Fatalf("before the removal dpid 2 lists %d port loads and %d table rows, want 2 and 1", loads, tables)
	}
	if !r.c.RemoveSwitch(2) {
		t.Fatal("RemoveSwitch(2) found no switch")
	}
	if loads, tables := count(2); loads != 0 || tables != 0 {
		t.Errorf("after the removal dpid 2 still lists %d port loads and %d table rows", loads, tables)
	}
	if loads, tables := count(1); loads != 2 || tables != 1 {
		t.Errorf("after removing dpid 2, dpid 1 lists %d port loads and %d table rows, want 2 and 1", loads, tables)
	}
}

// Counters that go backwards (the switch reset them, or came back on a
// new connection under the same DPID) start a new baseline: no wrapped
// difference reads as a rate, and no bogus high-utilization event is
// recorded.
func TestPortCountersResetIsBaseline(t *testing.T) {
	r := newSetupRig(t, Config{}, []uint64{1}, nil, nil)
	r.c.StartStatsPolling(time.Second)
	rx := func() float64 {
		loads := r.c.PortLoads()
		if len(loads) != 1 {
			t.Fatalf("%d port loads, want 1", len(loads))
		}
		return loads[0].RxMbps
	}
	r.portReply(1, 1, 1e9, 1e9)
	r.runTo(t, time.Second)
	r.portReply(1, 1, 1e9+125_000, 1e9+125_000) // 1 Mbps
	if got := rx(); got != 1 {
		t.Fatalf("rx = %v Mbps, want 1", got)
	}
	r.runTo(t, 2*time.Second)
	r.portReply(1, 1, 1000, 1000) // reset
	if got := rx(); got != 1 {
		t.Errorf("after the counters reset, rx = %v Mbps, want the last rate, 1", got)
	}
	r.runTo(t, 3*time.Second)
	r.portReply(1, 1, 1000+250_000, 1000+250_000) // 2 Mbps from the new baseline
	if got := rx(); got != 2 {
		t.Errorf("a second after the reset, rx = %v Mbps, want 2", got)
	}
	if n := r.store.Count(monitor.EventLoadReport); n != 0 {
		t.Errorf("%d load-report events recorded for a 2 Mbps port, want 0", n)
	}
}
