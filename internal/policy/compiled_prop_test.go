package policy

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"livesec/internal/flow"
	"livesec/internal/netpkt"
	"livesec/internal/seproto"
)

// randRule draws a rule with a random shape: each match dimension is
// independently present or wildcarded, prefixes span /0../32, and
// priorities collide on purpose (small range) to exercise name
// tie-breaking. Addresses come from a tiny pool so random keys actually
// hit the prefixes instead of testing the default path a thousand times.
func randRule(rng *rand.Rand, name string) *Rule {
	pfx := func() Prefix {
		bits := rng.Intn(34) - 1 // -1..32; invalids are clamped to valid below
		if bits < 0 {
			bits = 0
		}
		if bits == 0 {
			return Prefix{}
		}
		return Prefix{Addr: netpkt.IP(10, byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(8))), Bits: bits}
	}
	r := &Rule{Name: name, Priority: rng.Intn(8), Action: Allow}
	if rng.Intn(2) == 0 {
		r.Action = Deny
	}
	if rng.Intn(4) == 0 {
		r.Action = Chain
		r.Services = []seproto.ServiceType{seproto.ServiceIDS}
	}
	if rng.Intn(3) == 0 {
		r.Match.User = netpkt.MACFromUint64(uint64(1 + rng.Intn(5)))
	}
	if rng.Intn(2) == 0 {
		r.Match.SrcIP = pfx()
	}
	if rng.Intn(2) == 0 {
		r.Match.DstIP = pfx()
	}
	if rng.Intn(3) == 0 {
		r.Match.Proto = netpkt.ProtoTCP
		if rng.Intn(2) == 0 {
			r.Match.Proto = netpkt.ProtoUDP
		}
	}
	if rng.Intn(3) == 0 {
		r.Match.DstPort = uint16(80 + rng.Intn(4))
	}
	if rng.Intn(4) == 0 {
		r.Match.VLAN = uint16(1 + rng.Intn(3))
	}
	return r
}

// randKey draws a flow key from the same pools randRule draws matches
// from, so hits are common.
func randKey(rng *rand.Rand) flow.Key {
	return flow.Key{
		EthSrc:  netpkt.MACFromUint64(uint64(1 + rng.Intn(6))),
		EthType: netpkt.EtherTypeIPv4,
		IPSrc:   netpkt.IP(10, byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(8))),
		IPDst:   netpkt.IP(10, byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(8))),
		IPProto: netpkt.IPProto([]netpkt.IPProto{netpkt.ProtoTCP, netpkt.ProtoUDP}[rng.Intn(2)]),
		SrcPort: 50000,
		DstPort: uint16(80 + rng.Intn(5)),
		VLAN:    uint16(rng.Intn(4)),
	}
}

// checkEquivalent compares the classifier against the linear reference
// scan for a batch of random keys.
func checkEquivalent(t *testing.T, tbl *Table, rng *rand.Rand, keys int, tag string) {
	t.Helper()
	for i := 0; i < keys; i++ {
		k := randKey(rng)
		got, want := tbl.Lookup(k), tbl.LookupLinear(k)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: key %+v\ncompiled: %+v\nlinear:   %+v", tag, k, got, want)
		}
	}
}

// TestCompiledEquivalenceProperty is the property Table.Lookup rests on:
// on randomized rule sets, the tuple-space classifier and the linear
// first-match scan return identical decisions — through build,
// incremental adds, replacements, and removes.
func TestCompiledEquivalenceProperty(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		tbl := NewTable(Allow)
		n := 1 + rng.Intn(60)
		for i := 0; i < n; i++ {
			if err := tbl.Add(randRule(rng, fmt.Sprintf("r%03d", i))); err != nil {
				t.Fatal(err)
			}
		}
		checkEquivalent(t, tbl, rng, 200, fmt.Sprintf("trial %d build", trial))

		// Incremental churn: adds, same-name replacements, removes.
		for i := 0; i < 20; i++ {
			switch rng.Intn(3) {
			case 0:
				_ = tbl.Add(randRule(rng, fmt.Sprintf("c%03d", i)))
			case 1:
				_ = tbl.Add(randRule(rng, fmt.Sprintf("r%03d", rng.Intn(n))))
			case 2:
				tbl.Remove(fmt.Sprintf("r%03d", rng.Intn(n)))
			}
		}
		checkEquivalent(t, tbl, rng, 200, fmt.Sprintf("trial %d churn", trial))

		// A table bulk-built from the survivors equals the incrementally
		// maintained one.
		fresh := NewTable(Allow)
		if err := fresh.AddAll(tbl.Rules()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			k := randKey(rng)
			if got, want := fresh.Lookup(k), tbl.Lookup(k); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d rebuild: key %+v\nfresh:       %+v\nincremental: %+v", trial, k, got, want)
			}
		}
	}
}

// FuzzCompiledLookup drives the same equivalence property from fuzzed
// seeds; wired into the nightly fuzz smoke alongside the openflow codec
// targets. After the build the seed drives an edit stream — adds,
// same-name replacements, single removes, and whole-user purges that
// take the last rule out of exact-value groups — and the run ends by
// emptying the table, which must leave no group behind.
func FuzzCompiledLookup(f *testing.F) {
	f.Add(int64(1), uint8(10))
	f.Add(int64(42), uint8(60))
	f.Add(int64(-7), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		rng := rand.New(rand.NewSource(seed))
		tbl := NewTable(Deny)
		rules := int(n%80) + 1
		for i := 0; i < rules; i++ {
			_ = tbl.Add(randRule(rng, fmt.Sprintf("r%03d", i)))
		}
		check := func() {
			for i := 0; i < 64; i++ {
				k := randKey(rng)
				got, want := tbl.Lookup(k), tbl.LookupLinear(k)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("key %+v: compiled %+v != linear %+v", k, got, want)
				}
			}
		}
		check()
		for op := 0; op < int(n); op++ {
			switch rng.Intn(4) {
			case 0:
				_ = tbl.Add(randRule(rng, fmt.Sprintf("c%03d", op)))
			case 1:
				_ = tbl.Add(randRule(rng, fmt.Sprintf("r%03d", rng.Intn(rules))))
			case 2:
				tbl.Remove(fmt.Sprintf("r%03d", rng.Intn(rules)))
			case 3:
				user := netpkt.MACFromUint64(uint64(1 + rng.Intn(5)))
				for _, r := range tbl.Rules() {
					if r.Match.User == user {
						tbl.Remove(r.Name)
					}
				}
			}
			if op%8 == 7 {
				check()
			}
		}
		check()
		for _, r := range tbl.Rules() {
			tbl.Remove(r.Name)
		}
		if g := tbl.compiled.groupCount(); tbl.Len() != 0 || tbl.compiled.Len() != 0 || g != 0 {
			t.Fatalf("emptied table keeps state: len=%d indexed=%d groups=%d", tbl.Len(), tbl.compiled.Len(), g)
		}
		check()
	})
}

// TestCompiledGroupsBounded churns 10^5 distinct users through a table
// (a short window of live per-user rules, as sessions come and go). Each
// user is its own exact-value group, so the classifier must drop a group
// when its last rule leaves: the count tracks the live window and ends
// at the baseline instead of growing with history.
func TestCompiledGroupsBounded(t *testing.T) {
	tbl := NewTable(Allow)
	_ = tbl.Add(&Rule{Name: "web", Priority: 1, Match: Match{DstPort: 80}, Action: Deny})
	baseline := tbl.compiled.groupCount()
	const users, window = 100_000, 64
	name := func(i int) string { return fmt.Sprintf("u%06d", i) }
	for i := 0; i < users; i++ {
		if err := tbl.Add(&Rule{Name: name(i), Priority: 5, Action: Deny,
			Match: Match{User: netpkt.MACFromUint64(uint64(i + 1)), DstIP: CIDR(172, 16, 0, 1, 32)}}); err != nil {
			t.Fatal(err)
		}
		if i >= window {
			tbl.Remove(name(i - window))
		}
		if g := tbl.compiled.groupCount(); g > baseline+window+1 {
			t.Fatalf("after %d users: %d groups for %d live rules", i+1, g, tbl.Len())
		}
	}
	for i := users - window; i < users; i++ {
		tbl.Remove(name(i))
	}
	if g := tbl.compiled.groupCount(); g != baseline || tbl.Len() != 1 {
		t.Fatalf("after churn: %d groups (baseline %d), %d rules", g, baseline, tbl.Len())
	}
	if d := tbl.Lookup(key(7, netpkt.IP(172, 16, 0, 1), 80)); d.Rule != "web" {
		t.Fatalf("surviving rule lost: %+v", d)
	}
}

// TestCompiledRemoveEmptiesPartition exercises the partition scan-list
// bookkeeping: removing every rule of a shape must drop its partition
// from the scan, and re-adding must restore it.
func TestCompiledRemoveEmptiesPartition(t *testing.T) {
	tbl := NewTable(Allow)
	_ = tbl.Add(&Rule{Name: "p80", Priority: 9, Match: Match{DstPort: 80}, Action: Deny})
	k := key(1, netpkt.IP(1, 1, 1, 1), 80)
	if d := tbl.Lookup(k); d.Rule != "p80" {
		t.Fatalf("decision = %+v", d)
	}
	tbl.Remove("p80")
	if d := tbl.Lookup(k); d.Rule != "" || d.Action != Allow {
		t.Fatalf("after remove: %+v", d)
	}
	_ = tbl.Add(&Rule{Name: "p80b", Priority: 3, Match: Match{DstPort: 80}, Action: Deny})
	if d := tbl.Lookup(k); d.Rule != "p80b" {
		t.Fatalf("after re-add: %+v", d)
	}
}

// TestCompiledStaleMaxPrio checks the documented over-estimate: after
// removing a partition's highest-priority rule, the stale bound may cost
// an extra probe but lookups must stay correct.
func TestCompiledStaleMaxPrio(t *testing.T) {
	tbl := NewTable(Allow)
	_ = tbl.Add(&Rule{Name: "hi", Priority: 100, Match: Match{DstPort: 80}, Action: Deny})
	_ = tbl.Add(&Rule{Name: "lo", Priority: 1, Match: Match{DstPort: 80}, Action: Allow})
	_ = tbl.Add(&Rule{Name: "mid", Priority: 50, Match: Match{Proto: netpkt.ProtoTCP}, Action: Chain,
		Services: []seproto.ServiceType{seproto.ServiceIDS}})
	tbl.Remove("hi")
	k := key(1, netpkt.IP(1, 1, 1, 1), 80)
	if d := tbl.Lookup(k); d.Rule != "mid" {
		t.Fatalf("decision = %+v, want mid", d)
	}
}
