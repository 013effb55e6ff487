// Package intent is the runtime intent→rule policy compiler (ROADMAP;
// arXiv 2301.03790): administrators state *what* must hold — "guests
// reach the web tier only via the IDS+firewall chain" — and the compiler
// lowers each intent to a block of concrete policy.Rules at runtime,
// detects pairwise conflicts and shadowing between intents, and
// recompiles incrementally: an intent edit touches only its own rule
// block and emits the delta of added/removed match cones.
package intent

import (
	"fmt"

	"livesec/internal/loadbalance"
	"livesec/internal/netpkt"
	"livesec/internal/policy"
	"livesec/internal/seproto"
)

// Intent is one declarative statement of desired reachability. List
// fields enumerate alternatives (OR within a field); an empty list means
// "any". The compiled block is the cartesian product of the lists — one
// concrete rule per combination, all at the intent's priority.
type Intent struct {
	// Name identifies the intent; compiled rules are namespaced under it
	// ("intent:<name>#<i>").
	Name string
	// Priority orders intents exactly like rule priority: higher wins.
	Priority int

	// Who the intent governs: specific users (source MACs, LiveSec's
	// user identity, §III.A) and/or source segments.
	Users   []netpkt.MAC
	SrcNets []policy.Prefix

	// What it governs reaching.
	DstNets  []policy.Prefix
	DstPorts []uint16
	Proto    netpkt.IPProto
	VLAN     uint16

	// The outcome: allow, deny, or steer through Services in order.
	Action   policy.Action
	Services []seproto.ServiceType
	FailOpen bool

	// Load-balancing configuration inherited by every compiled rule;
	// zero values inherit controller defaults.
	Grain     loadbalance.Grain
	Algorithm loadbalance.Algorithm
}

// maxBlockRules caps one intent's compiled block. The product of four
// lists can explode combinatorially; an intent that lowers to more rules
// than this is almost certainly a modelling mistake (enumerate less,
// aggregate prefixes more) and would stall the interactive edit path.
const maxBlockRules = 4096

// RuleName returns the name of the i-th rule of an intent's block.
func RuleName(intent string, i int) string {
	return fmt.Sprintf("intent:%s#%d", intent, i)
}

// Compile lowers the intent to its rule block, in deterministic order
// (users × src nets × dst nets × ports, each "any" when empty). Every
// rule is validated; the block shares one Services slice.
func (it *Intent) Compile() ([]*policy.Rule, error) {
	if it.Name == "" {
		return nil, fmt.Errorf("intent: needs a name")
	}
	users := it.Users
	if len(users) == 0 {
		users = []netpkt.MAC{{}}
	}
	srcs := it.SrcNets
	if len(srcs) == 0 {
		srcs = []policy.Prefix{{}}
	}
	dsts := it.DstNets
	if len(dsts) == 0 {
		dsts = []policy.Prefix{{}}
	}
	ports := it.DstPorts
	if len(ports) == 0 {
		ports = []uint16{0}
	}
	n := len(users) * len(srcs) * len(dsts) * len(ports)
	if n > maxBlockRules {
		return nil, fmt.Errorf("intent %q: compiles to %d rules (cap %d); aggregate prefixes or split the intent", it.Name, n, maxBlockRules)
	}
	var services []seproto.ServiceType
	if len(it.Services) > 0 {
		services = append([]seproto.ServiceType(nil), it.Services...)
	}
	rules := make([]*policy.Rule, 0, n)
	for _, u := range users {
		for _, s := range srcs {
			for _, d := range dsts {
				for _, p := range ports {
					r := &policy.Rule{
						Name:     RuleName(it.Name, len(rules)),
						Priority: it.Priority,
						Match: policy.Match{
							User:    u,
							SrcIP:   s,
							DstIP:   d,
							Proto:   it.Proto,
							DstPort: p,
							VLAN:    it.VLAN,
						},
						Action:    it.Action,
						Services:  services,
						Grain:     it.Grain,
						Algorithm: it.Algorithm,
						FailOpen:  it.FailOpen,
					}
					if err := r.Validate(); err != nil {
						return nil, fmt.Errorf("intent %q: %w", it.Name, err)
					}
					rules = append(rules, r)
				}
			}
		}
	}
	return rules, nil
}

// cones returns the block's match cones without building rules; used by
// conflict checks against intents that are already installed.
func blockCones(rules []*policy.Rule) []policy.Match {
	cones := make([]policy.Match, len(rules))
	for i, r := range rules {
		cones[i] = r.Match
	}
	return cones
}
