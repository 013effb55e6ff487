package dataplane

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"livesec/internal/flow"
	"livesec/internal/link"
	"livesec/internal/netpkt"
	"livesec/internal/openflow"
	"livesec/internal/sim"
	"livesec/internal/slots/slotstest"
)

// benchSink is a Node that discards every delivered frame.
type benchSink struct{}

func (benchSink) Receive(uint32, *netpkt.Packet) {}

// BenchmarkMicroflowLookup measures the exact-match microflow cache in
// front of a wildcard-heavy table against going to the table directly.
// The hit path is the per-packet steady state and must stay
// allocation-free.
func BenchmarkMicroflowLookup(b *testing.B) {
	for _, n := range []int{64, 512} {
		tbl, probe := aclTable(n)
		cache := newMicroflowCache()
		cache.lookup(tbl, probe) // warm: every further lookup is a hit
		b.Run(fmt.Sprintf("hit/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if cache.lookup(tbl, probe) == noRef {
					b.Fatal("miss")
				}
			}
		})
		b.Run(fmt.Sprintf("nocache/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if tbl.lookup(probe) == noRef {
					b.Fatal("miss")
				}
			}
		})
	}
}

// benchSwitch builds a two-port switch with an installed forwarding rule
// for the benchmark packet, ports wired to discard sinks.
func benchSwitch() (*sim.Engine, *Switch, *netpkt.Packet) {
	eng := sim.NewEngine(1)
	sw := New(eng, Config{DPID: 1, Kind: KindOvS})
	l1 := link.Connect(eng, sw, 1, benchSink{}, 0, link.Params{})
	l2 := link.Connect(eng, sw, 2, benchSink{}, 0, link.Params{})
	sw.AttachPort(1, l1)
	sw.AttachPort(2, l2)
	pkt := netpkt.NewTCP(netpkt.MACFromUint64(1), netpkt.MACFromUint64(2),
		netpkt.IP(10, 0, 0, 1), netpkt.IP(10, 0, 0, 2), 1234, 80, []byte("payload"))
	// A realistic table: wildcard ACL background plus the flow's entry.
	masks := []flow.Wildcard{
		flow.WildAll &^ flow.WildIPSrc,
		flow.WildAll &^ flow.WildIPDst,
		flow.WildAll &^ (flow.WildIPSrc | flow.WildDstPort),
	}
	for i := 0; i < 96; i++ {
		k := flow.Key{
			IPSrc:   netpkt.IP(10, 4, byte(i>>8), byte(i)),
			IPDst:   netpkt.IP(10, 5, byte(i>>8), byte(i)),
			DstPort: uint16(3000 + i),
		}
		sw.table.Add(Entry{
			Match:    flow.Match{Wildcards: masks[i%len(masks)], Key: k},
			Priority: uint16(90 + i%15),
		}, 0)
	}
	// The flow's own rule is wildcard-based, like LiveSec interaction
	// rules, and sits amid competing-priority ACL buckets, so the
	// uncached lookup must probe several buckets per packet.
	sw.table.Add(Entry{
		Match:    flow.Match{Wildcards: flow.WildVLAN | flow.WildIPTOS, Key: flow.KeyOf(1, pkt)},
		Priority: 100,
		Actions:  openflow.Output(2),
	}, 0)
	return eng, sw, pkt
}

// BenchmarkPipelineSteadyState runs the full per-packet path — flow-key
// extraction, microflow lookup, counter updates, action application,
// link transmit, and the event-engine delivery that follows — in the
// post-flow-setup steady state. The "microflow" sub-benchmark name is
// what bench-hot baselines know this row by.
func BenchmarkPipelineSteadyState(b *testing.B) {
	b.Run("microflow", func(b *testing.B) {
		eng, sw, pkt := benchSwitch()
		// Prime once so the microflow cache is warm.
		sw.pipeline(bufferedPacket{pkt, 1})
		if err := eng.RunAll(1 << 20); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sw.pipeline(bufferedPacket{pkt, 1})
			if err := eng.RunAll(1 << 20); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if sw.TableMisses != 0 {
			b.Fatalf("unexpected table misses: %d", sw.TableMisses)
		}
	})
}

// fullestTableKeys are n distinct exact keys.
func fullestTableKeys(n int) []flow.Key {
	keys := make([]flow.Key, n)
	for i := range keys {
		keys[i] = exactKey(uint16(i))
		keys[i].IPSrc = netpkt.IP(10, 1, byte(i>>16), byte(i>>8))
	}
	return keys
}

// BenchmarkFlowTableExact times exact-index lookups, hits and misses,
// adds, and strict deletes at the size of sim_churn's fullest flow table:
// 112,574 exact entries. "add" also reports the heap bytes a full table
// retains per entry.
func BenchmarkFlowTableExact(b *testing.B) {
	const n = 112_574
	keys := fullestTableKeys(n)
	fill := func() *FlowTable {
		tbl := NewFlowTable()
		for _, k := range keys {
			tbl.Add(Entry{Match: flow.ExactMatch(k), Priority: 10, Actions: openflow.Output(2)}, 0)
		}
		return tbl
	}
	tbl := fill()
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if tbl.lookup(keys[i%n]) == noRef {
				b.Fatal("miss")
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := keys[i%n]
			k.DstPort++
			if tbl.lookup(k) != noRef {
				b.Fatal("hit")
			}
		}
	})
	b.Run("add", func(b *testing.B) {
		timeCycles(b, n, NewFlowTable, func(t *FlowTable, i int) {
			t.Add(Entry{Match: flow.ExactMatch(keys[i]), Priority: 10, Actions: openflow.Output(2)}, 0)
		})
		before := slotstest.Retained()
		t := fill()
		b.ReportMetric(float64(slotstest.Retained()-before)/n, "retained-B/entry")
		runtime.KeepAlive(t)
	})
	b.Run("delete-strict", func(b *testing.B) {
		timeCycles(b, n, fill, func(t *FlowTable, i int) {
			if len(t.Delete(flow.ExactMatch(keys[i]), 10, true)) != 1 {
				b.Fatal("deleted nothing")
			}
		})
	})
}

// timeCycles runs whole cycles of n operations, op(t, 0) … op(t, n-1),
// until at least b.N have run. Before each cycle, off the clock, refill
// builds the cycle's table and runtime.GC collects the last cycle's, so
// neither lands on the clock and every timed operation is one of a full
// cycle. ns/op, B/op and allocs/op are reported per operation run, which
// keeps them independent of b.N.
func timeCycles(b *testing.B, n int, refill func() *FlowTable, op func(t *FlowTable, i int)) {
	b.ReportAllocs()
	b.StopTimer()
	b.ResetTimer()
	var (
		ops            int
		mallocs, bytes uint64
		before, after  runtime.MemStats
	)
	for ops < b.N {
		t := refill()
		runtime.GC()
		runtime.ReadMemStats(&before)
		b.StartTimer()
		for i := 0; i < n; i++ {
			op(t, i)
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
		ops += n
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops), "ns/op")
	b.ReportMetric(float64(mallocs)/float64(ops), "allocs/op")
	b.ReportMetric(float64(bytes)/float64(ops), "B/op")
}

// BenchmarkFlowTableExpire times one expiry sweep of a table the size of
// sim_churn's fullest: 112,574 exact entries with the controller's 30 s
// idle timeout. With none due the sweep is the bound check; with 1 %
// due (a 1 s hard timeout, re-installed between sweeps off the clock) it
// is the walk.
func BenchmarkFlowTableExpire(b *testing.B) {
	const n = 112_574
	keys := fullestTableKeys(n)
	for _, c := range []struct {
		name string
		due  int
	}{{"none-due", 0}, {"1pct-due", n / 100}} {
		b.Run(c.name, func(b *testing.B) {
			tbl := NewFlowTable()
			add := func(k flow.Key, hard uint16) {
				tbl.Add(Entry{Match: flow.ExactMatch(k), Priority: 10, IdleTimeout: 30, HardTimeout: hard,
					Actions: openflow.Output(2)}, 0)
			}
			for _, k := range keys[:c.due] {
				add(k, 1)
			}
			for _, k := range keys[c.due:] {
				add(k, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := tbl.Expire(2 * time.Second); len(got) != c.due {
					b.Fatalf("expired %d, want %d", len(got), c.due)
				}
				if c.due > 0 {
					b.StopTimer()
					for _, k := range keys[:c.due] {
						add(k, 1)
					}
					b.StartTimer()
				}
			}
		})
	}
}
