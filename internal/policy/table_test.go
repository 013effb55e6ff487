package policy

import (
	"fmt"
	"testing"

	"livesec/internal/netpkt"
)

// TestPrefixStrict pins the strict Matches/Valid semantics: a malformed
// prefix matches nothing and fails validation, instead of the old
// behaviour where Bits < 0 with any Addr matched everything and
// Bits > 32 built a zero mask.
func TestPrefixStrict(t *testing.T) {
	ip := netpkt.IP(10, 1, 2, 3)
	cases := []struct {
		name    string
		p       Prefix
		matches bool
		valid   bool
	}{
		{"any (zero value)", Prefix{}, true, true},
		{"host hit", HostIP(ip), true, true},
		{"host miss", HostIP(netpkt.IP(10, 1, 2, 4)), false, true},
		{"/8 hit", CIDR(10, 0, 0, 0, 8), true, true},
		{"/8 miss", CIDR(11, 0, 0, 0, 8), false, true},
		{"unmasked addr bits ignored", CIDR(10, 1, 2, 99, 24), true, true},
		{"negative bits", Prefix{Addr: netpkt.IP(9, 9, 9, 9), Bits: -1}, false, false},
		{"negative bits zero addr", Prefix{Bits: -8}, false, false},
		{"bits over 32", Prefix{Addr: ip, Bits: 33}, false, false},
		{"bits way over", Prefix{Addr: ip, Bits: 255}, false, false},
		{"zero bits non-zero addr", Prefix{Addr: ip, Bits: 0}, false, false},
	}
	for _, c := range cases {
		if got := c.p.Matches(ip); got != c.matches {
			t.Errorf("%s: Matches = %v, want %v", c.name, got, c.matches)
		}
		if got := c.p.Valid() == nil; got != c.valid {
			t.Errorf("%s: Valid = %v, want %v", c.name, got, c.valid)
		}
	}
}

// TestValidateRejectsBadPrefixes: malformed prefixes are caught at Add
// time, on both address predicates.
func TestValidateRejectsBadPrefixes(t *testing.T) {
	tbl := NewTable(Allow)
	bad := []*Rule{
		{Name: "s", Action: Allow, Match: Match{SrcIP: Prefix{Addr: netpkt.IP(1, 2, 3, 4), Bits: 40}}},
		{Name: "d", Action: Allow, Match: Match{DstIP: Prefix{Addr: netpkt.IP(1, 2, 3, 4), Bits: -1}}},
		{Name: "z", Action: Allow, Match: Match{SrcIP: Prefix{Addr: netpkt.IP(1, 2, 3, 4), Bits: 0}}},
	}
	for _, r := range bad {
		if err := tbl.Add(r); err == nil {
			t.Errorf("rule %q: invalid prefix accepted", r.Name)
		}
	}
	if tbl.Len() != 0 || tbl.Version() != 0 {
		t.Fatalf("rejected rules mutated the table: len=%d version=%d", tbl.Len(), tbl.Version())
	}
}

// TestEachOrderAndStop: Each walks evaluation order and honours an early
// stop.
func TestEachOrderAndStop(t *testing.T) {
	tbl := NewTable(Allow)
	_ = tbl.Add(&Rule{Name: "b", Priority: 5, Action: Deny})
	_ = tbl.Add(&Rule{Name: "a", Priority: 9, Action: Deny})
	_ = tbl.Add(&Rule{Name: "c", Priority: 1, Action: Deny})
	var names []string
	tbl.Each(func(r *Rule) bool {
		names = append(names, r.Name)
		return true
	})
	if fmt.Sprint(names) != "[a b c]" {
		t.Fatalf("order = %v", names)
	}
	n := 0
	tbl.Each(func(*Rule) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d rules", n)
	}
}
