package testbed

import (
	"strings"
	"testing"

	"livesec/internal/core"
	"livesec/internal/netpkt"
	"livesec/internal/seproto"
)

// TestBuildRejectsMalformedSpec: every malformed Spec is an error that
// names the offending entry, returned before a network is built.
func TestBuildRejectsMalformedSpec(t *testing.T) {
	host := func(sw, name string, ip netpkt.IPv4Addr) Node { return HostNode(sw, name, ip, Wired) }
	ids := ElementNode("s1", seproto.ServiceIDS)
	s1 := []SwitchSpec{{Name: "s1"}}
	for _, tc := range []struct {
		name string
		spec Spec
		want string
	}{
		{"unknown switch", Spec{Switches: s1, Nodes: []Node{
			host("s1", "a", netpkt.IP(10, 0, 0, 1)), host("s9", "b", netpkt.IP(10, 0, 0, 2))}},
			`node 1 (host "b"): no switch "s9"`},
		{"element without inspector", Spec{Switches: s1, Nodes: []Node{ids, {Element: &ElementSpec{Switch: "s1"}}}},
			"node 1 (element): no inspector"},
		{"IDS rules do not compile", Spec{Switches: s1, Nodes: []Node{ids}, Rules: "alert nonsense"},
			"node 0 (element): IDS rules"},
		{"two hosts with one IP", Spec{Switches: s1, Nodes: []Node{
			host("s1", "a", netpkt.IP(10, 0, 0, 1)), host("s1", "b", netpkt.IP(10, 0, 0, 1))}},
			`node 1 (host "b"): IP 10.0.0.1 is host "a"'s`},
		{"node neither host nor element", Spec{Switches: s1, Nodes: []Node{{}}}, "node 0: set exactly one"},
		{"two switches with one name", Spec{Switches: []SwitchSpec{{Name: "s1"}, {Name: "s1"}}}, `switch 1: name "s1"`},
		{"controller field New owns", Spec{Options: Options{Config: core.Config{Seed: 5}}, Switches: s1},
			"Options.Config sets Engine, Store, Seed or Policies"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, err := Build(tc.spec)
			if err == nil || n != nil {
				t.Fatalf("Build = %v, %v; want an error", n, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
}
