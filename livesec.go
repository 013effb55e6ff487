// Package livesec is a faithful reimplementation of LiveSec (Wang et
// al., ICDCS Workshops 2012): an OpenFlow-based security-management
// architecture for large-scale production networks. It provides a
// deterministic discrete-event simulation of the complete system — the
// legacy Ethernet fabric, the Access-Switching layer of OpenFlow
// switches and OF Wi-Fi APs under a centralized controller, and the
// Network-Periphery of users and VM-based security service elements —
// plus the security services themselves (Snort-like intrusion detection,
// l7-filter-like protocol identification, virus scanning, content
// inspection).
//
// The package is a curated facade over the internal subsystems. A
// typical deployment:
//
//	pt := livesec.NewPolicyTable(livesec.Allow)
//	pt.Add(&livesec.PolicyRule{
//	    Name:     "inspect-web",
//	    Match:    livesec.PolicyMatch{DstPort: 80},
//	    Action:   livesec.Chain,
//	    Services: []livesec.ServiceType{livesec.ServiceIDS},
//	})
//	net := livesec.NewNetwork(livesec.Options{Policies: pt, Monitor: true})
//	sw := net.AddOvS("ovs1")
//	user := net.AddWiredUser(sw, "alice", livesec.IP(10, 0, 0, 1))
//	net.AddElement(sw, livesec.MustIDS(livesec.CommunityRules), 0)
//	net.Discover()
//	// … generate traffic, then inspect net.Store / net.Controller.
package livesec

import (
	"livesec/internal/core"
	"livesec/internal/firewall"
	"livesec/internal/flow"
	"livesec/internal/host"
	"livesec/internal/ids"
	"livesec/internal/l7"
	"livesec/internal/link"
	"livesec/internal/loadbalance"
	"livesec/internal/monitor"
	"livesec/internal/netpkt"
	"livesec/internal/policy"
	"livesec/internal/seproto"
	"livesec/internal/service"
	"livesec/internal/testbed"
	"livesec/internal/workload"
)

// Network assembly ----------------------------------------------------

// Network is a complete simulated LiveSec deployment: legacy fabric,
// Access-Switching layer, controller, hosts and service elements.
type Network = testbed.Net

// Options configures a Network: its Seed and Policies, the harness
// switches, and the embedded ControllerConfig.
type Options = testbed.Options

// ControllerConfig is the controller's configuration, embedded in
// Options as Options.Config. NewNetwork sets its Engine, Store, Seed
// and Policies itself and panics if the caller set them.
type ControllerConfig = core.Config

// NewNetwork creates an empty deployment; add switches, hosts and
// elements, then call Discover.
func NewNetwork(opts Options) *Network { return testbed.New(opts) }

// FITOptions sizes a FIT-building deployment (§V of the paper).
type FITOptions = testbed.FITOptions

// FITNetwork is a deployed FIT building.
type FITNetwork = testbed.FIT

// BuildFIT assembles the paper's campus deployment.
func BuildFIT(fo FITOptions, opts Options) (*FITNetwork, error) {
	return testbed.BuildFIT(fo, opts)
}

// FullFIT returns the paper's deployment sizes (10 OvS, 20 APs, 200
// elements, 50 users).
func FullFIT() FITOptions { return testbed.FullFIT() }

// ScaledFIT returns a small same-shape replica for quick runs.
func ScaledFIT() FITOptions { return testbed.ScaledFIT() }

// GatewayIP is the FIT deployment's Internet-side address.
var GatewayIP = testbed.GatewayIP

// LinkParams configures an access link (line rate, delay, queue).
type LinkParams = link.Params

// Common line rates for LinkParams.BitsPerSec.
const (
	Rate43M  = link.Rate43M  // Pantou OF Wi-Fi air interface
	Rate100M = link.Rate100M // wired campus access
	Rate1G   = link.Rate1G   // GbE host NIC
	Rate10G  = link.Rate10G
)

// DHCPPool configures the controller's address-leasing directory
// (§III.C.2); assign it to Options.DHCP.
type DHCPPool = core.DHCPPool

// Addressing -----------------------------------------------------------

// MAC is a 48-bit Ethernet address.
type MAC = netpkt.MAC

// IPv4Addr is an IPv4 address.
type IPv4Addr = netpkt.IPv4Addr

// IP builds the address a.b.c.d.
func IP(a, b, c, d byte) IPv4Addr { return netpkt.IP(a, b, c, d) }

// IP protocol numbers for PolicyMatch.Proto.
const (
	ProtoTCP  = netpkt.ProtoTCP
	ProtoUDP  = netpkt.ProtoUDP
	ProtoICMP = netpkt.ProtoICMP
)

// Packet is one simulated network frame.
type Packet = netpkt.Packet

// TCPFlags selects TCP control bits for NewTCPSegment.
type TCPFlags struct{ SYN, ACK, FIN, RST bool }

// NewTCPSegment crafts one TCP segment between two hosts with an
// explicit sequence number and control bits — enough to drive a real
// three-way handshake through a strict stateful firewall (see
// examples/mobility). Send it with Host.Send; both hosts must already
// be known to the controller (any prior resolved traffic suffices).
func NewTCPSegment(from, to *Host, srcPort, dstPort uint16, seq uint32, fl TCPFlags, payload []byte) *Packet {
	pkt := netpkt.NewTCP(from.MAC, to.MAC, from.IP, to.IP, srcPort, dstPort, payload)
	pkt.TCP.Seq = seq
	pkt.TCP.SYN, pkt.TCP.ACK, pkt.TCP.FIN, pkt.TCP.RST = fl.SYN, fl.ACK, fl.FIN, fl.RST
	return pkt
}

// Host is a Network-Periphery end system.
type Host = host.Host

// FlowKey is the OpenFlow 12-tuple flow identity.
type FlowKey = flow.Key

// Controller ------------------------------------------------------------

// Controller is the LiveSec controller (the paper's core contribution).
type Controller = core.Controller

// ControllerStats are the controller's activity counters.
type ControllerStats = core.Stats

// HostLocation is one routing-table entry.
type HostLocation = core.HostLoc

// TopologySnapshot is the WebUI topology view.
type TopologySnapshot = core.TopologySnapshot

// Policy ----------------------------------------------------------------

// PolicyTable is the controller's global policy table.
type PolicyTable = policy.Table

// PolicyRule is one policy entry.
type PolicyRule = policy.Rule

// PolicyMatch selects the flows a rule applies to.
type PolicyMatch = policy.Match

// PolicyAction is a policy decision kind.
type PolicyAction = policy.Action

// Policy actions.
const (
	Allow = policy.Allow
	Deny  = policy.Deny
	Chain = policy.Chain
)

// Prefix is an IPv4 CIDR predicate for policy matches.
type Prefix = policy.Prefix

// CIDR builds a prefix a.b.c.d/bits.
func CIDR(a, b, c, d byte, bits int) Prefix { return policy.CIDR(a, b, c, d, bits) }

// HostIP builds a /32 prefix.
func HostIP(ip IPv4Addr) Prefix { return policy.HostIP(ip) }

// NewPolicyTable creates a policy table with a default action.
func NewPolicyTable(def PolicyAction) *PolicyTable { return policy.NewTable(def) }

// Services ----------------------------------------------------------------

// ServiceType identifies a network-service kind.
type ServiceType = seproto.ServiceType

// Service types.
const (
	ServiceIDS = seproto.ServiceIDS
	ServiceL7  = seproto.ServiceL7
	ServiceAV  = seproto.ServiceAV
	ServiceCI  = seproto.ServiceCI
	ServiceFW  = seproto.ServiceFW
)

// ServiceElement is a VM-based security service element.
type ServiceElement = service.Element

// Inspector is a pluggable deep-inspection engine for elements.
type Inspector = service.Inspector

// CommunityRules is the built-in Snort-lite detection rule set.
const CommunityRules = ids.CommunityRules

// NewIDS builds an intrusion-detection inspector from rule text.
func NewIDS(ruleText string) (Inspector, error) { return service.NewIDS(ruleText) }

// MustIDS builds an IDS inspector, panicking on rule-parse errors.
func MustIDS(ruleText string) Inspector {
	insp, err := service.NewIDS(ruleText)
	if err != nil {
		panic(err)
	}
	return insp
}

// NewL7 builds a protocol-identification inspector.
func NewL7() Inspector { return service.NewL7() }

// NewAV builds a virus-scanning inspector.
func NewAV() Inspector { return service.NewAV() }

// NewCI builds a content inspector flagging the given keywords.
func NewCI(keywords ...string) Inspector { return service.NewCI(keywords...) }

// FirewallOptions configures a stateful firewall inspector.
type FirewallOptions = firewall.Options

// NewFirewall builds a stateful-firewall inspector tracking TCP
// connection state. Unless opts.NoSync is set, its connection table
// migrates to the successor element across re-steers, drains and
// failovers (core/fwstate.go).
func NewFirewall(opts FirewallOptions) Inspector { return firewall.New(opts) }

// NewStrictFirewall builds a firewall that drops out-of-state and
// out-of-window packets.
func NewStrictFirewall() Inspector { return firewall.NewStrict() }

// Protocol is an identified application protocol.
type Protocol = l7.Protocol

// Load balancing -----------------------------------------------------------

// Algorithm selects a dispatch method for load balancing.
type Algorithm = loadbalance.Algorithm

// Dispatch algorithms (§IV.B: polling, hash, queuing, minimum-load).
const (
	RoundRobin     = loadbalance.RoundRobin
	HashDispatch   = loadbalance.HashDispatch
	ShortestQueue  = loadbalance.ShortestQueue
	LeastLoad      = loadbalance.LeastLoad
	RandomDispatch = loadbalance.RandomDispatch
)

// Grain selects balancing granularity.
type Grain = loadbalance.Grain

// Granularities.
const (
	FlowGrain = loadbalance.FlowGrain
	UserGrain = loadbalance.UserGrain
)

// Monitoring -----------------------------------------------------------------

// EventStore is the monitoring event log with history replay.
type EventStore = monitor.Store

// Event is one monitoring record.
type Event = monitor.Event

// EventType classifies monitoring events.
type EventType = monitor.EventType

// EventFilter selects events for queries and replay.
type EventFilter = monitor.Filter

// Monitoring event types.
const (
	EventUserJoin  = monitor.EventUserJoin
	EventUserLeave = monitor.EventUserLeave
	EventAttack    = monitor.EventAttack
	EventProtocol  = monitor.EventProtocol
	EventSEOnline  = monitor.EventSEOnline
	EventSEOffline = monitor.EventSEOffline
	EventBlocked   = monitor.EventFlowBlocked

	// Firewall state-migration outcomes.
	EventFWHandoff        = monitor.EventFWHandoff
	EventFWHandoffTimeout = monitor.EventFWHandoffTimeout
)

// Workloads --------------------------------------------------------------------

// Meter measures goodput at a receiving host.
type Meter = workload.Meter

// HTTPClient issues HTTP-like transactions, one flow each.
type HTTPClient = workload.HTTPClient

// HTTPServer installs a web responder on a host.
func HTTPServer(srv *Host, port uint16, respBytes int) { workload.HTTPServer(srv, port, respBytes) }

// SendAttack emits one canned attack (see workload.Attacks).
func SendAttack(src *Host, dstIP IPv4Addr, name string, srcPort uint16) error {
	return workload.SendAttack(src, dstIP, name, srcPort)
}
