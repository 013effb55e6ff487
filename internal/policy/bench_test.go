package policy

import (
	"fmt"
	"math/rand"
	"testing"

	"livesec/internal/flow"
	"livesec/internal/netpkt"
	"livesec/internal/seproto"
)

// genRules builds an n-rule set with a production-like mix of shapes:
// host/subnet prefixes over a /8, a spread of destination ports and
// protocols, a sliver of per-user rules, priorities drawn from a small
// band so ties and early-exit both happen.
func genRules(n int) []*Rule {
	rng := rand.New(rand.NewSource(7))
	rules := make([]*Rule, 0, n)
	for i := 0; i < n; i++ {
		r := &Rule{Name: fmt.Sprintf("r%07d", i), Priority: rng.Intn(64), Action: Deny}
		if i%5 == 0 {
			r.Action = Chain
			r.Services = []seproto.ServiceType{seproto.ServiceIDS}
		}
		u := uint32(rng.Int31())
		r.Match.DstIP = Prefix{Addr: netpkt.IPFromUint32(0x0a000000 | u&0x00ffffff), Bits: 24 + rng.Intn(9)}
		if i%3 != 0 {
			r.Match.SrcIP = Prefix{Addr: netpkt.IPFromUint32(0x0a000000 | uint32(rng.Int31())&0x00ffffff), Bits: 16 + rng.Intn(17)}
		}
		if i%2 == 0 {
			r.Match.DstPort = uint16(1 + rng.Intn(1024))
		}
		if i%4 == 0 {
			r.Match.Proto = netpkt.ProtoTCP
		}
		if i%100 == 0 {
			r.Match.User = netpkt.MACFromUint64(uint64(1 + rng.Intn(1000)))
		}
		rules = append(rules, r)
	}
	return rules
}

// genKeys draws keys from the rule address space so lookups exercise
// real matches, not just the default path.
func genKeys(n int) []flow.Key {
	rng := rand.New(rand.NewSource(11))
	keys := make([]flow.Key, n)
	for i := range keys {
		keys[i] = flow.Key{
			EthSrc:  netpkt.MACFromUint64(uint64(1 + rng.Intn(1000))),
			EthType: netpkt.EtherTypeIPv4,
			IPSrc:   netpkt.IPFromUint32(0x0a000000 | uint32(rng.Int31())&0x00ffffff),
			IPDst:   netpkt.IPFromUint32(0x0a000000 | uint32(rng.Int31())&0x00ffffff),
			IPProto: netpkt.ProtoTCP,
			SrcPort: 50000,
			DstPort: uint16(1 + rng.Intn(1024)),
		}
	}
	return keys
}

func benchTable(b *testing.B, n int) (*Table, []flow.Key) {
	b.Helper()
	tbl := NewTable(Allow)
	if err := tbl.AddAll(genRules(n)); err != nil {
		b.Fatal(err)
	}
	return tbl, genKeys(1024)
}

// BenchmarkPolicyLookupCompiled is in the bench-hot set: the classifier
// probe at 100k rules, which the controller pays on every flow setup.
func BenchmarkPolicyLookupCompiled(b *testing.B) {
	tbl, keys := benchTable(b, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tbl.Lookup(keys[i&1023])
	}
}

// BenchmarkPolicyLookupLinear times the test oracle (oracle_test.go) for
// reference; 1k rules keeps an iteration sane. Not in the bench-hot set.
func BenchmarkPolicyLookupLinear(b *testing.B) {
	tbl, keys := benchTable(b, 1_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tbl.LookupLinear(keys[i&1023])
	}
}

// BenchmarkPolicyAddAll is in the bench-hot set: bulk build of a
// 100k-rule table, classifier included.
func BenchmarkPolicyAddAll(b *testing.B) {
	rules := genRules(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl := NewTable(Allow)
		if err := tbl.AddAll(rules); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolicySingleEdit measures one Add+Remove against a large
// table — the per-rule cost a single-intent edit pays.
func BenchmarkPolicySingleEdit(b *testing.B) {
	tbl, _ := benchTable(b, 100_000)
	r := &Rule{Name: "edit", Priority: 7, Match: Match{DstPort: 4242}, Action: Deny}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tbl.Add(r); err != nil {
			b.Fatal(err)
		}
		tbl.Remove("edit")
	}
}
