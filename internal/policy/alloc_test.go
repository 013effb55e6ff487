package policy

import (
	"fmt"
	"testing"

	"livesec/internal/netpkt"
	"livesec/internal/seproto"
)

// The lookup and iteration paths run on every flow setup and every
// table walk; at million-rule scale an allocation per call turns
// into GC pressure that dwarfs the classification itself.

func allocTable(n int) *Table {
	tbl := NewTable(Allow)
	for i := 0; i < n; i++ {
		_ = tbl.Add(&Rule{
			Name:     fmt.Sprintf("r%05d", i),
			Priority: i % 32,
			Match:    Match{DstIP: CIDR(10, byte(i>>8), byte(i), 0, 24), DstPort: uint16(80 + i%8)},
			Action:   Deny,
		})
	}
	return tbl
}

func TestEachZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun is meaningless here")
	}
	tbl := allocTable(1000)
	var n int
	if allocs := testing.AllocsPerRun(50, func() {
		n = 0
		tbl.Each(func(*Rule) bool { n++; return true })
	}); allocs != 0 {
		t.Fatalf("Each allocs/run = %v, want 0 (Rules() copies; Each must not)", allocs)
	}
	if n != 1000 {
		t.Fatalf("Each visited %d rules", n)
	}
}

func TestCompiledLookupZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun is meaningless here")
	}
	tbl := allocTable(1000)
	hit := key(1, netpkt.IP(10, 0, 7, 9), 81)
	miss := key(1, netpkt.IP(192, 168, 1, 1), 443)
	var d Decision
	if allocs := testing.AllocsPerRun(200, func() {
		d = tbl.Lookup(hit)
		d = tbl.Lookup(miss)
	}); allocs != 0 {
		t.Fatalf("compiled Lookup allocs/run = %v, want 0", allocs)
	}
	_ = d
}

// TestLookupZeroAllocsAt20kRules is the production-path tripwire at
// sim_churn's table size (20,000 per-user rules plus one chain rule):
// Lookup allocates nothing, and it never materializes the evaluation-
// order snapshot — a linear scan sneaking back in would.
func TestLookupZeroAllocsAt20kRules(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun is meaningless here")
	}
	tbl := NewTable(Allow)
	for i := 0; i < 20_000; i++ {
		_ = tbl.Add(&Rule{
			Name:     fmt.Sprintf("seg-%05d", i),
			Priority: 10,
			Match: Match{User: netpkt.MACFromUint64(0xB000000000 | uint64(i)),
				DstIP: CIDR(172, 16, byte(i>>8), byte(i), 32), DstPort: 443},
			Action: Deny,
		})
	}
	_ = tbl.Add(&Rule{Name: "web-chain", Priority: 5, Match: Match{DstPort: 80},
		Action: Chain, Services: []seproto.ServiceType{seproto.ServiceL7, seproto.ServiceIDS}})
	hit := key(1, netpkt.IP(10, 0, 0, 1), 80)
	miss := key(1, netpkt.IP(10, 0, 0, 1), 5001)
	var d Decision
	if allocs := testing.AllocsPerRun(200, func() {
		d = tbl.Lookup(hit)
		d = tbl.Lookup(miss)
	}); allocs != 0 {
		t.Fatalf("Lookup allocs/run = %v on %d rules, want 0", allocs, tbl.Len())
	}
	if d.Rule != "" || tbl.Lookup(hit).Rule != "web-chain" {
		t.Fatalf("wrong decisions: miss=%+v hit=%+v", d, tbl.Lookup(hit))
	}
	if tbl.sortedOK || tbl.sorted != nil {
		t.Fatal("Lookup built the sorted rule snapshot: the O(rules) scan is back on the lookup path")
	}
}
