package intent

import (
	"fmt"
	"testing"

	"livesec/internal/netpkt"
	"livesec/internal/policy"
	"livesec/internal/seproto"
)

// microsegIntents models the E11 workload: per-user-group
// microsegmentation intents, each compiling to a small block.
func microsegIntents(n int) []Intent {
	out := make([]Intent, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Intent{
			Name:     fmt.Sprintf("seg-%06d", i),
			Priority: 10 + i%40,
			Users:    []netpkt.MAC{netpkt.MACFromUint64(uint64(i + 1))},
			DstNets: []policy.Prefix{
				policy.CIDR(10, byte(i>>8), byte(i), 0, 24),
				policy.CIDR(10, 100+byte(i%100), byte(i>>8), 0, 24),
			},
			DstPorts: []uint16{80, 443},
			Action:   policy.Chain,
			Services: []seproto.ServiceType{seproto.ServiceIDS},
		})
	}
	return out
}

// BenchmarkIntentSingleEdit measures one intent edit (re-upsert with a
// changed port) against a compiled table already holding n intents —
// the interactive policy-update path LiveSec requires to stay in
// milliseconds (§IV.A); E11's ≤10ms budget at a million rules rides on
// the per-edit cost staying flat in table size.
func BenchmarkIntentSingleEdit(b *testing.B) {
	for _, n := range []int{1_000, 10_000} {
		b.Run(fmt.Sprintf("intents=%d", n), func(b *testing.B) {
			tbl := policy.NewTable(policy.Deny)
			c := New(tbl)
			for _, it := range microsegIntents(n) {
				if _, _, err := c.Upsert(it); err != nil {
					b.Fatal(err)
				}
			}
			edit := microsegIntents(1)[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				edit.DstPorts = []uint16{80, uint16(8000 + i%1000)}
				if _, _, err := c.Upsert(edit); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIntentBulkInstall measures installing n intents into an
// empty compiled table.
func BenchmarkIntentBulkInstall(b *testing.B) {
	intents := microsegIntents(1_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl := policy.NewTable(policy.Deny)
		c := New(tbl)
		for _, it := range intents {
			if _, _, err := c.Upsert(it); err != nil {
				b.Fatal(err)
			}
		}
	}
}
