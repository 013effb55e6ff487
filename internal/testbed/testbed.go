// Package testbed assembles complete LiveSec deployments inside the
// simulator: a legacy fabric, Access-Switching layer switches wired to a
// controller, Network-Periphery hosts and VM-based service elements. It
// is the shared harness for integration tests, examples, and the
// experiment benches, and it can build the paper's FIT-building
// deployment (§V: 10 OpenFlow switches, 20 OF Wi-Fi APs, 200 service
// elements, 50 users).
package testbed

import (
	"fmt"
	"time"

	"livesec/internal/chaos"
	"livesec/internal/core"
	"livesec/internal/dataplane"
	"livesec/internal/host"
	"livesec/internal/legacy"
	"livesec/internal/link"
	"livesec/internal/monitor"
	"livesec/internal/netpkt"
	"livesec/internal/obs"
	"livesec/internal/openflow"
	"livesec/internal/policy"
	"livesec/internal/service"
	"livesec/internal/sim"
)

// uplinkPort is the reserved AS-switch port number facing the legacy
// fabric.
const uplinkPort uint32 = 1000

// defaultCtrlLatency is the secure-channel one-way latency of a switch
// that does not choose its own (AddSwitchFull).
const defaultCtrlLatency = 200 * time.Microsecond

// Options configures a testbed network.
type Options struct {
	// Seed drives all randomness (default 1).
	Seed int64
	// Policies preloads the controller policy table (nil = allow all).
	Policies *policy.Table
	// RequireCerts enables service-element certification checks.
	RequireCerts bool
	// Monitor enables the event store.
	Monitor bool
	// SteerForwardOnly disables reverse-path steering.
	SteerForwardOnly bool
	// FlowIdle overrides the controller's flow idle timeout.
	FlowIdle time.Duration
	// HostTTL overrides the controller's silent-host expiry.
	HostTTL time.Duration
	// DHCP enables the controller's address-leasing directory.
	DHCP core.DHCPPool
	// UseBarriers enables barrier-synchronized first-packet release.
	UseBarriers bool
	// Keepalive enables the controller's echo keepalive, reconnect
	// resync, and failure-drain machinery (core/resilience.go).
	Keepalive bool
	// Chaos installs a fault injector: every secure channel is wrapped
	// in a chaos.Channel and links/elements are registered for fault
	// events. With an empty plan the wrapped run is byte-identical to
	// an unwrapped one.
	Chaos bool
	// PacketInCost is the controller's virtual per-packet-in processing
	// time (core.Config.PacketInCost); 0 keeps the controller infinitely
	// fast.
	PacketInCost time.Duration
	// OverloadProtection enables the controller's ingress priority lanes,
	// admission control, and suppression rules (core/overload.go).
	OverloadProtection bool
	// Breakers enables per-service-element circuit breakers
	// (core/breaker.go).
	Breakers bool
	// SessionTTL bounds session-record lifetime (core/sessions.go).
	SessionTTL time.Duration
	// Obs wires the observability subsystem through the controller and
	// every switch added later (core.Config.Obs + dataplane RegisterObs).
	// Nil keeps all hooks off.
	Obs *obs.FlowObs
	// Shards > 1 splits the controller into that many logical shards
	// with consistent-hash switch ownership (core/shard.go). On its own
	// the shard layer only attributes work — message streams and results
	// are byte-identical to an unsharded run.
	Shards int
	// ShardLanes serializes each shard's packet-ins on its own busy
	// clock of PacketInCost (scale-out model, changes timing).
	ShardLanes bool
	// ShardCoordLatency delays cross-shard install batches as
	// coordination messages (0 = inline flush).
	ShardCoordLatency time.Duration
	// ShardFailoverDelay is the hot-standby takeover delay after
	// KillShard (0 = the core default, 200ms).
	ShardFailoverDelay time.Duration
	// StatefulFW enables connection-state migration for stateful
	// firewall elements (core/fwstate.go). Off by default.
	StatefulFW bool
	// FWHandoffTimeout bounds a state handoff's wait for its ack
	// (0 = the core default).
	FWHandoffTimeout time.Duration
	// SLO builds the deterministic alert engine (obs/alerts.go) over Obs
	// with the default rule pack, ticking on the controller engine.
	// Requires Obs; ignored when Obs is nil. Transitions are recorded as
	// monitor events when Monitor is on. Evaluation is read-only, so
	// simulated network behaviour is unchanged.
	SLO bool
	// SLOInterval overrides the alert evaluation tick
	// (0 = obs.DefaultAlertInterval).
	SLOInterval time.Duration
}

// Net is an assembled deployment.
type Net struct {
	// Eng is the deployment's one simulation engine.
	Eng        *sim.Engine
	Fabric     *legacy.Fabric
	Controller *core.Controller
	Store      *monitor.Store
	// Alerts is the SLO alert engine, non-nil when Options.SLO is set
	// together with Options.Obs.
	Alerts *obs.AlertEngine

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
}

// New creates an empty deployment.
func New(opts Options) *Net {
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
	ctrl := core.New(core.Config{
		Engine:           eng,
		Store:            store,
		Policies:         opts.Policies,
		RequireCerts:     opts.RequireCerts,
		SteerForwardOnly: opts.SteerForwardOnly,
		FlowIdle:         opts.FlowIdle,
		HostTTL:          opts.HostTTL,
		DHCP:             opts.DHCP,
		UseBarriers:      opts.UseBarriers,
		Keepalive:        opts.Keepalive,
		Seed:             opts.Seed,

		PacketInCost:       opts.PacketInCost,
		OverloadProtection: opts.OverloadProtection,
		Breakers:           opts.Breakers,
		SessionTTL:         opts.SessionTTL,
		Obs:                opts.Obs,

		Shards:             opts.Shards,
		ShardLanes:         opts.ShardLanes,
		ShardCoordLatency:  opts.ShardCoordLatency,
		ShardFailoverDelay: opts.ShardFailoverDelay,

		StatefulFW:       opts.StatefulFW,
		FWHandoffTimeout: opts.FWHandoffTimeout,
	})
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
	}
	if opts.Shards > 1 && opts.Obs != nil {
		// Per-shard activity gauges, registered only for sharded
		// deployments so an unsharded exposition stays byte-identical.
		r := opts.Obs.Registry
		for id := 0; id < opts.Shards; id++ {
			id := id
			lbl := obs.L("shard", fmt.Sprint(id))
			r.GaugeFunc("livesec_shard_msgs_total",
				"Control-channel messages attributed to this controller shard.",
				func() float64 { return float64(ctrl.ShardStats()[id].Msgs) }, lbl)
			r.GaugeFunc("livesec_shard_cross_installs_total",
				"Cross-shard install batches sent by this controller shard.",
				func() float64 { return float64(ctrl.ShardStats()[id].CrossInstallsOut) }, lbl)
			r.GaugeFunc("livesec_shard_alive",
				"Whether this controller shard's event loop is up (1) or failed over (0).",
				func() float64 {
					if ctrl.ShardStats()[id].Alive {
						return 1
					}
					return 0
				}, lbl)
		}
	}
	if opts.SLO && opts.Obs != nil {
		ae := obs.NewAlertEngine(opts.Obs, opts.SLOInterval, obs.DefaultRules(opts.Obs))
		n.Alerts = ae
		if store != nil {
			ae.OnTransition = store.RecordAlert
		}
		// The evaluation tick self-reschedules for the lifetime of the run.
		// Evaluation only reads the registry, so the simulated network is
		// untouched; no experiment row reports raw engine event counts.
		var tick func()
		tick = func() {
			ae.Tick(eng.Now())
			eng.Schedule(ae.Interval(), tick)
		}
		eng.Schedule(ae.Interval(), tick)
	}
	return n
}

// AddSwitch creates an AS switch (OvS or OF Wi-Fi), uplinks it into
// the fabric's core switch at 1 GbE, and connects its secure channel.
func (n *Net) AddSwitch(kind dataplane.Kind, name string) *dataplane.Switch {
	return n.AddSwitchUplink(kind, name, link.Rate1G)
}

// AddSwitchUplink is AddSwitch with an explicit uplink line rate; the
// E2 experiment uses it to model the service-element host's shared GbE
// NIC while client and server switches get faster uplinks.
func (n *Net) AddSwitchUplink(kind dataplane.Kind, name string, uplinkBps int64) *dataplane.Switch {
	return n.AddSwitchFull(kind, name, uplinkBps, defaultCtrlLatency)
}

// AddSwitchFull additionally sets the switch's secure-channel one-way
// latency — distant wiring closets see the controller later than nearby
// ones, which is what makes barrier synchronization matter.
func (n *Net) AddSwitchFull(kind dataplane.Kind, name string, uplinkBps int64, ctrlLatency time.Duration) *dataplane.Switch {
	n.nextDPID++
	dpid := n.nextDPID
	if name == "" {
		prefix := "ovs"
		if kind == dataplane.KindWiFi {
			prefix = "wifi"
		}
		name = fmt.Sprintf("%s%d", prefix, dpid)
	}
	sw := dataplane.New(n.Eng, dataplane.Config{DPID: dpid, Name: name, Kind: kind})
	if n.opts.Obs != nil {
		sw.RegisterObs(n.opts.Obs.Registry)
	}
	up := n.Fabric.Attach(0, sw, uplinkPort, link.Params{BitsPerSec: uplinkBps})
	sw.AttachPort(uplinkPort, up)
	ctrlSide, swSide := openflow.SimPipe(n.Eng, ctrlLatency)
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

// AddWiredUser attaches a host over a 100 Mbps access link (§V.B.1).
func (n *Net) AddWiredUser(sw *dataplane.Switch, name string, ip netpkt.IPv4Addr) *host.Host {
	return n.AddHost(sw, name, ip, link.Params{BitsPerSec: link.Rate100M})
}

// AddWirelessUser attaches a host over a 43 Mbps air interface (§V.B.1).
func (n *Net) AddWirelessUser(sw *dataplane.Switch, name string, ip netpkt.IPv4Addr) *host.Host {
	return n.AddHost(sw, name, ip, link.Params{BitsPerSec: link.Rate43M})
}

// AddServer attaches a host over an uncapped link (gateway, data-center
// server); the bottleneck is then elsewhere by construction.
func (n *Net) AddServer(sw *dataplane.Switch, name string, ip netpkt.IPv4Addr) *host.Host {
	return n.AddHost(sw, name, ip, link.Params{BitsPerSec: link.Rate10G})
}

// AddElement attaches a VM-based service element to sw. Each element
// shares the host server's GbE NIC in the paper; pass nicRate 0 for a
// dedicated 1 GbE virtual link.
func (n *Net) AddElement(sw *dataplane.Switch, insp service.Inspector, nicRate int64) *service.Element {
	n.nextSEID++
	id := n.nextSEID
	mac := netpkt.MACFromUint64(0x5E0000 + id)
	return n.addElementWithMAC(sw, insp, nicRate, id, mac)
}

func (n *Net) addElementWithMAC(sw *dataplane.Switch, insp service.Inspector, nicRate int64, id uint64, mac netpkt.MAC) *service.Element {
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
// heartbeats, and floods location announcements. Deployments call it
// once after construction; afterwards Eng.Now() is the experiment epoch.
func (n *Net) Discover() error {
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
