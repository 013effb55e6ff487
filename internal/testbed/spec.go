package testbed

import (
	"fmt"
	"time"

	"livesec/internal/dataplane"
	"livesec/internal/ids"
	"livesec/internal/link"
	"livesec/internal/netpkt"
	"livesec/internal/seproto"
	"livesec/internal/service"
)

// Spec is a deployment as data. Build turns it into a running, discovered
// Net. Attach order is part of the value: dpids, host MACs, element ids
// and each switch's port numbers are handed out in list order, and
// events at one instant fire in the order they were scheduled (a switch
// schedules its HELLO and expiry sweep when created, an element its first
// heartbeat when attached), so the same Spec always builds the same
// network.
type Spec struct {
	// Options configures the controller and the harness.
	Options Options
	// Switches are created first, in order; dpids count from 1.
	Switches []SwitchSpec
	// Nodes are the hosts and service elements, attached in order after
	// every switch.
	Nodes []Node
	// Rules is the IDS rule text every ServiceIDS element without its own
	// Inspector inspects over (empty = ids.CommunityRules). Build compiles
	// it once, when the first such element needs it.
	Rules string
	// Settle is how long Build runs the network after Discover, e.g. one
	// heartbeat interval so every element has registered.
	Settle time.Duration
}

// SwitchSpec is one AS switch.
type SwitchSpec struct {
	// Kind is the device (0 = dataplane.KindOvS).
	Kind dataplane.Kind
	// Name identifies the switch; nodes attach to it by name.
	Name string
	// Uplink is the fabric uplink's line rate in bit/s (0 = 1 GbE).
	Uplink int64
	// CtrlLatency is the secure channel's one-way latency (0 = 200 µs).
	// Distant wiring closets see the controller later than nearby ones,
	// which is what makes barrier synchronization matter.
	CtrlLatency time.Duration
}

// HostSpec is one user host or server.
type HostSpec struct {
	// Switch names the AS switch the host attaches to.
	Switch string
	Name   string
	IP     netpkt.IPv4Addr
	// Link is the access link, usually Wired, Wireless or Server.
	Link link.Params
}

// ElementSpec is one VM-based service element on a dedicated 1 GbE
// link.
type ElementSpec struct {
	// Switch names the AS switch the element attaches to.
	Switch string
	// Service picks a stock inspector when Inspector is nil: ServiceIDS
	// inspects over the Spec's Rules, ServiceL7 identifies protocols.
	Service seproto.ServiceType
	// Inspector, when set, is the element's engine and Service is
	// ignored.
	Inspector service.Inspector
}

// Node is one entry of Spec.Nodes: exactly one of Host and Element is
// set.
type Node struct {
	Host    *HostSpec
	Element *ElementSpec
}

// HostNode is the node for host name at ip on switch sw over link p.
func HostNode(sw, name string, ip netpkt.IPv4Addr, p link.Params) Node {
	return Node{Host: &HostSpec{Switch: sw, Name: name, IP: ip, Link: p}}
}

// ElementNode is the node for a stock element of service svc on switch
// sw.
func ElementNode(sw string, svc seproto.ServiceType) Node {
	return Node{Element: &ElementSpec{Switch: sw, Service: svc}}
}

// Build assembles spec: New with its Options, then every switch and
// node in list order, then Discover and the Settle run. A malformed Spec
// — a node on an unknown switch, an element with no inspector, IDS rules
// that do not compile, two hosts with one IP, Options.Config setting a
// field New owns — is an error naming the entry, returned before anything
// is built.
func Build(spec Spec) (*Net, error) {
	if err := spec.Options.check(); err != nil {
		return nil, err
	}
	inspectors, err := spec.inspectors()
	if err != nil {
		return nil, err
	}
	n := New(spec.Options)
	switches := make(map[string]*dataplane.Switch, len(spec.Switches))
	for _, s := range spec.Switches {
		switches[s.Name] = n.addSwitch(s)
	}
	for i, nd := range spec.Nodes {
		if h := nd.Host; h != nil {
			n.AddHost(switches[h.Switch], h.Name, h.IP, h.Link)
		} else {
			n.AddElement(switches[nd.Element.Switch], inspectors[i], 0)
		}
	}
	if err := n.Discover(); err != nil {
		n.Shutdown()
		return nil, err
	}
	if err := n.Run(spec.Settle); err != nil {
		n.Shutdown()
		return nil, err
	}
	return n, nil
}

// inspectors validates spec and returns each element node's inspector,
// indexed like Nodes. Stock IDS inspectors share one compiled rule set.
func (spec Spec) inspectors() ([]service.Inspector, error) {
	switches := make(map[string]bool, len(spec.Switches))
	for i, s := range spec.Switches {
		if s.Name == "" || switches[s.Name] {
			return nil, fmt.Errorf("testbed: switch %d: name %q is empty or taken", i, s.Name)
		}
		switches[s.Name] = true
	}
	var rules *ids.Ruleset
	ips := make(map[netpkt.IPv4Addr]string)
	out := make([]service.Inspector, len(spec.Nodes))
	for i, nd := range spec.Nodes {
		switch h, el := nd.Host, nd.Element; {
		case (h == nil) == (el == nil):
			return nil, fmt.Errorf("testbed: node %d: set exactly one of Host and Element", i)
		case h != nil:
			if !switches[h.Switch] {
				return nil, fmt.Errorf("testbed: node %d (host %q): no switch %q", i, h.Name, h.Switch)
			}
			// The zero address is a DHCP client's, which many hosts share.
			if prev, ok := ips[h.IP]; ok && h.IP != (netpkt.IPv4Addr{}) {
				return nil, fmt.Errorf("testbed: node %d (host %q): IP %v is host %q's", i, h.Name, h.IP, prev)
			}
			ips[h.IP] = h.Name
		case !switches[el.Switch]:
			return nil, fmt.Errorf("testbed: node %d (element): no switch %q", i, el.Switch)
		case el.Inspector != nil:
			out[i] = el.Inspector
		case el.Service == seproto.ServiceL7:
			out[i] = service.NewL7()
		case el.Service == seproto.ServiceIDS:
			if rules == nil {
				text := spec.Rules
				if text == "" {
					text = ids.CommunityRules
				}
				var err error
				if rules, err = ids.Compile(text); err != nil {
					return nil, fmt.Errorf("testbed: node %d (element): IDS rules: %w", i, err)
				}
			}
			out[i] = service.NewIDSOver(rules)
		default:
			return nil, fmt.Errorf("testbed: node %d (element): no inspector for service %v", i, el.Service)
		}
	}
	return out, nil
}
