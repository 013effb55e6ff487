// Package testbed assembles complete LiveSec deployments inside the
// simulator: a legacy fabric, Access-Switching layer switches wired to a
// controller, Network-Periphery hosts and VM-based service elements. It
// is the shared harness for integration tests, examples, and the
// experiment benches, and it can build the paper's FIT-building
// deployment (§V: 10 OpenFlow switches, 20 OF Wi-Fi APs, 200 service
// elements, 50 users).
package testbed

import (
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"livesec/internal/chaos"
	"livesec/internal/core"
	"livesec/internal/dataplane"
	"livesec/internal/host"
	"livesec/internal/legacy"
	"livesec/internal/link"
	"livesec/internal/monitor"
	"livesec/internal/netpkt"
	"livesec/internal/openflow"
	"livesec/internal/policy"
	"livesec/internal/service"
	"livesec/internal/sim"
)

// uplinkPort is the reserved AS-switch port number facing the legacy
// fabric.
const uplinkPort uint32 = 1000

// defaultCtrlLatency is the secure-channel one-way latency of a switch
// that does not choose its own (SwitchSpec.CtrlLatency).
const defaultCtrlLatency = 200 * time.Microsecond

// Options configures a testbed network: the controller's configuration
// plus what the harness adds around it.
type Options struct {
	// Config is the controller's configuration, passed to core.New.
	// New owns four of its fields: it sets Engine and Store (the event
	// store under Monitor) itself and copies Seed and Policies from the
	// fields below. Setting any of the four in Config is an error (Build)
	// or a panic (New).
	core.Config
	// Seed drives all randomness (default 1). It shadows Config.Seed so
	// that a composite literal can set it.
	Seed int64
	// Policies preloads the controller policy table (nil = allow all).
	// It shadows Config.Policies for the same reason.
	Policies *policy.Table
	// Monitor enables the event store.
	Monitor bool
	// Chaos installs a fault injector: every secure channel is wrapped
	// in a chaos.Channel and the controller, links and elements are
	// registered for fault events. With an empty plan the wrapped run is byte-identical to
	// an unwrapped one.
	Chaos bool
}

// Net is an assembled deployment.
type Net struct {
	// Eng is the deployment's one simulation engine.
	Eng        *sim.Engine
	Fabric     *legacy.Fabric
	Controller *core.Controller
	Store      *monitor.Store

	Switches []*dataplane.Switch
	Hosts    []*host.Host
	Elements []*service.Element

	// Chaos is the fault injector, non-nil when Options.Chaos is set.
	Chaos *chaos.Injector

	opts        Options
	nextDPID    uint64
	nextPort    map[uint64]uint32
	nextHost    uint64
	nextSEID    uint64
	accessLinks map[link.Node]*link.Link
	linkIDs     map[link.Node]int // node → chaos link id (stable across moves)
	uplinkIDs   map[uint64]int    // dpid → chaos link id of the uplink
	nextLinkID  int
	nextFlooder int
	discovered  bool
}

// New creates an empty deployment. It panics if opts.Config sets a field
// New owns.
func New(opts Options) *Net {
	if err := opts.check(); err != nil {
		panic(err)
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	eng := sim.NewEngine(opts.Seed)
	var store *monitor.Store
	if opts.Monitor {
		store = monitor.NewStore(0)
	}
	fabric := legacy.NewFabric(eng)
	fabric.AddSwitch("core")
	cfg := opts.Config
	cfg.Engine, cfg.Store, cfg.Seed, cfg.Policies = eng, store, opts.Seed, opts.Policies
	ctrl := core.New(cfg)
	n := &Net{
		Eng:         eng,
		Fabric:      fabric,
		Controller:  ctrl,
		Store:       store,
		opts:        opts,
		nextPort:    make(map[uint64]uint32),
		accessLinks: make(map[link.Node]*link.Link),
		linkIDs:     make(map[link.Node]int),
		uplinkIDs:   make(map[uint64]int),
	}
	if opts.Chaos {
		n.Chaos = chaos.NewInjector(eng)
		n.Chaos.RegisterController(ctrl)
	}
	return n
}

// check rejects a value in one of the Config fields New owns, which New
// would otherwise overwrite without a word.
func (opts Options) check() error {
	if c := opts.Config; c.Engine != nil || c.Store != nil || c.Seed != 0 || c.Policies != nil {
		return errors.New("testbed: Options.Config sets Engine, Store, Seed or Policies, which New owns (set Options.Seed and Options.Policies)")
	}
	return nil
}

// AddSwitch creates an AS switch (OvS or OF Wi-Fi), uplinks it into
// the fabric's core switch at 1 GbE, and connects its secure channel.
func (n *Net) AddSwitch(kind dataplane.Kind, name string) *dataplane.Switch {
	return n.addSwitch(SwitchSpec{Kind: kind, Name: name})
}

// addSwitch creates the switch s describes; an empty name becomes
// "ovs<dpid>" or "wifi<dpid>".
func (n *Net) addSwitch(s SwitchSpec) *dataplane.Switch {
	if s.Kind == 0 {
		s.Kind = dataplane.KindOvS
	}
	if s.Uplink == 0 {
		s.Uplink = link.Rate1G
	}
	if s.CtrlLatency == 0 {
		s.CtrlLatency = defaultCtrlLatency
	}
	n.nextDPID++
	dpid := n.nextDPID
	if s.Name == "" {
		prefix := "ovs"
		if s.Kind == dataplane.KindWiFi {
			prefix = "wifi"
		}
		s.Name = fmt.Sprintf("%s%d", prefix, dpid)
	}
	sw := dataplane.New(n.Eng, dataplane.Config{DPID: dpid, Name: s.Name, Kind: s.Kind})
	sw.RegisterObs(n.Controller.Obs().Registry)
	up := n.Fabric.Attach(0, sw, uplinkPort, link.Params{BitsPerSec: s.Uplink})
	sw.AttachPort(uplinkPort, up)
	ctrlSide, swSide := openflow.SimPipe(n.Eng, s.CtrlLatency)
	sw.ConnectController(swSide)
	if n.Chaos != nil {
		n.uplinkIDs[dpid] = n.registerLink(up)
		n.Controller.AddSwitch(n.Chaos.WrapConn(dpid, ctrlSide))
	} else {
		n.Controller.AddSwitch(ctrlSide)
	}
	n.Switches = append(n.Switches, sw)
	return sw
}

// AddOvS adds a wired Open vSwitch.
func (n *Net) AddOvS(name string) *dataplane.Switch {
	return n.AddSwitch(dataplane.KindOvS, name)
}

// AddWiFi adds an OF Wi-Fi access point.
func (n *Net) AddWiFi(name string) *dataplane.Switch {
	return n.AddSwitch(dataplane.KindWiFi, name)
}

// registerLink assigns a fresh chaos link id and registers l under it.
func (n *Net) registerLink(l *link.Link) int {
	n.nextLinkID++
	n.Chaos.RegisterLink(n.nextLinkID, l)
	return n.nextLinkID
}

// trackAccessLink remembers a node's access link and, under chaos,
// (re)registers it with the injector — moves keep the node's link id so
// a scheduled fault follows the node, not the old wire.
func (n *Net) trackAccessLink(node link.Node, l *link.Link) {
	n.accessLinks[node] = l
	if n.Chaos == nil {
		return
	}
	id, ok := n.linkIDs[node]
	if !ok {
		n.nextLinkID++
		id = n.nextLinkID
		n.linkIDs[node] = id
	}
	n.Chaos.RegisterLink(id, l)
}

// RegisterFlooder registers h as a chaos flood generator and returns the
// flooder id to use in FloodStart/FloodStop plan events (0 when chaos is
// disabled).
func (n *Net) RegisterFlooder(h *host.Host) int {
	if n.Chaos == nil {
		return 0
	}
	n.nextFlooder++
	n.Chaos.RegisterFlooder(n.nextFlooder, h)
	return n.nextFlooder
}

// AccessLinkID returns the chaos link id of a node's access link
// (0 when chaos is disabled or the node is unknown). Nothing calls it
// or UplinkLinkID yet: they are how generated fault plans (ROADMAP
// item 1) will name links.
func (n *Net) AccessLinkID(node link.Node) int { return n.linkIDs[node] }

// UplinkLinkID returns the chaos link id of a switch's fabric uplink.
func (n *Net) UplinkLinkID(sw *dataplane.Switch) int { return n.uplinkIDs[sw.DPID()] }

// allocPort reserves the next access port on a switch.
func (n *Net) allocPort(sw *dataplane.Switch) uint32 {
	n.nextPort[sw.DPID()]++
	return n.nextPort[sw.DPID()]
}

// AddHost attaches a user host to sw with the given access-link
// parameters (100 Mbps wired and 43 Mbps wireless in the paper).
func (n *Net) AddHost(sw *dataplane.Switch, name string, ip netpkt.IPv4Addr, p link.Params) *host.Host {
	n.nextHost++
	h := host.New(n.Eng, name, netpkt.MACFromUint64(n.nextHost), ip)
	port := n.allocPort(sw)
	l := link.Connect(n.Eng, sw, port, h, 0, p)
	sw.AttachPort(port, l)
	h.Attach(l)
	n.trackAccessLink(h, l)
	n.Hosts = append(n.Hosts, h)
	return h
}

// MoveHost re-attaches a host to another switch (user mobility): the
// old access link goes down and a new one comes up with the given
// parameters. The controller discovers the move from the host's next
// transmission.
func (n *Net) MoveHost(h *host.Host, to *dataplane.Switch, p link.Params) {
	if old, ok := n.accessLinks[h]; ok {
		old.SetUp(false)
	}
	port := n.allocPort(to)
	l := link.Connect(n.Eng, to, port, h, 0, p)
	to.AttachPort(port, l)
	h.Attach(l)
	n.trackAccessLink(h, l)
}

// Access links by host role (§V.B.1): a wired user's 100 Mbps link, a
// wireless user's 43 Mbps air interface, and a server's uncapped 10 Gbps
// link (gateway, data-center server), whose bottleneck is then elsewhere
// by construction.
var (
	Wired    = link.Params{BitsPerSec: link.Rate100M}
	Wireless = link.Params{BitsPerSec: link.Rate43M}
	Server   = link.Params{BitsPerSec: link.Rate10G}
)

// AddWiredUser attaches a host over the Wired access link.
func (n *Net) AddWiredUser(sw *dataplane.Switch, name string, ip netpkt.IPv4Addr) *host.Host {
	return n.AddHost(sw, name, ip, Wired)
}

// AddWirelessUser attaches a host over the Wireless air interface.
func (n *Net) AddWirelessUser(sw *dataplane.Switch, name string, ip netpkt.IPv4Addr) *host.Host {
	return n.AddHost(sw, name, ip, Wireless)
}

// AddServer attaches a host over the uncapped Server link.
func (n *Net) AddServer(sw *dataplane.Switch, name string, ip netpkt.IPv4Addr) *host.Host {
	return n.AddHost(sw, name, ip, Server)
}

// AddElement attaches a VM-based service element to sw. Each element
// shares the host server's GbE NIC in the paper; pass nicRate 0 for a
// dedicated 1 GbE virtual link.
func (n *Net) AddElement(sw *dataplane.Switch, insp service.Inspector, nicRate int64) *service.Element {
	n.nextSEID++
	id := n.nextSEID
	mac := netpkt.MACFromUint64(0x5E0000 + id)
	if nicRate == 0 {
		nicRate = link.Rate1G
	}
	ip := netpkt.IP(10, 9, byte(id>>8), byte(id))
	el := service.New(n.Eng, service.Config{
		ID:        id,
		Name:      fmt.Sprintf("se%d", id),
		MAC:       mac,
		IP:        ip,
		Inspector: insp,
		Cert:      n.Controller.Certify(id, mac),
	})
	port := n.allocPort(sw)
	l := link.Connect(n.Eng, sw, port, el, 0, link.Params{BitsPerSec: nicRate})
	sw.AttachPort(port, l)
	el.Attach(l)
	n.trackAccessLink(el, l)
	if n.Chaos != nil {
		n.Chaos.RegisterElement(id, el)
	}
	n.Elements = append(n.Elements, el)
	return el
}

// MoveElement live-migrates a VM-based service element to another
// switch (§III.D.1 dynamic migration). Its next heartbeat teaches the
// controller and the fabric the new location.
func (n *Net) MoveElement(el *service.Element, to *dataplane.Switch, nicRate int64) {
	if nicRate == 0 {
		nicRate = link.Rate1G
	}
	if old, ok := n.accessLinks[el]; ok {
		old.SetUp(false)
	}
	port := n.allocPort(to)
	l := link.Connect(n.Eng, to, port, el, 0, link.Params{BitsPerSec: nicRate})
	to.AttachPort(port, l)
	el.Attach(l)
	n.trackAccessLink(el, l)
}

// Run advances virtual time by d.
func (n *Net) Run(d time.Duration) error {
	return n.Eng.Run(n.Eng.Now() + d)
}

// Discover starts the controller, completes the OpenFlow handshake and
// LLDP topology discovery, waits for the first service-element
// heartbeats, and floods location announcements. Afterwards Eng.Now()
// is the experiment epoch. Call it once after building a Net by hand;
// Build and BuildFIT run it themselves. Later calls return nil at once,
// because the benchmark harness (bench/) calls it again after BuildFIT
// and must still run discovery exactly once.
func (n *Net) Discover() error {
	if n.discovered {
		return nil
	}
	n.discovered = true
	n.Controller.Start()
	// Handshake (hello/features) round trips.
	if err := n.Run(5 * time.Millisecond); err != nil {
		return err
	}
	// Two discovery rounds: the first teaches uplinks, the second
	// confirms the full mesh after every switch is registered.
	for i := 0; i < 2; i++ {
		n.Controller.DiscoverNow()
		if err := n.Run(5 * time.Millisecond); err != nil {
			return err
		}
	}
	// First heartbeats arrive at t=0 relative to element attach; give
	// them a beat and re-announce everything now that uplinks are known.
	if err := n.Run(time.Millisecond); err != nil {
		return err
	}
	n.Controller.AnnounceAll()
	return n.Run(5 * time.Millisecond)
}

// Processed returns the number of simulated events executed so far.
func (n *Net) Processed() uint64 { return n.Eng.Processed }

// Digest hashes (FNV-64a) what the deployment has delivered so far: the
// controller's outcome and event log (core.Controller.WriteOutcome), what
// every host received and every element inspected, and the virtual time.
// How it got there — message and cache counters, the events executed — is
// left out, so a change that delivers the same keeps the digest. Two runs
// of one scenario have the same digest.
func (n *Net) Digest() uint64 {
	h := fnv.New64a()
	n.Controller.WriteOutcome(h)
	for _, hst := range n.Hosts {
		fmt.Fprintf(h, "%v;", hst.Stats())
	}
	for _, el := range n.Elements {
		fmt.Fprintf(h, "%v;", el.Stats())
	}
	fmt.Fprintf(h, "%d", n.Eng.Now())
	return h.Sum64()
}

// Shutdown stops background tickers on every component.
func (n *Net) Shutdown() {
	n.Controller.Shutdown()
	for _, sw := range n.Switches {
		sw.Shutdown()
	}
	for _, el := range n.Elements {
		el.Shutdown()
	}
}
