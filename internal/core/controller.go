// Package core implements the LiveSec controller, the paper's primary
// contribution (§III–IV): the centralized control plane of the
// Access-Switching layer. It discovers the logical full-mesh topology
// over the legacy fabric (LLDP), learns host locations from ARP traffic
// and proxies address resolution, computes abstract two-hop routes,
// enforces the global policy table by installing flow entries —
// including the four-entry interactive steering through off-path service
// elements — balances security workload across elements, and reacts to
// service-element event reports by blocking flows at their ingress
// switch.
package core

import (
	"fmt"
	"hash/maphash"
	"sort"
	"time"

	"livesec/internal/flow"
	"livesec/internal/intent"
	"livesec/internal/loadbalance"
	"livesec/internal/monitor"
	"livesec/internal/netpkt"
	"livesec/internal/obs"
	"livesec/internal/openflow"
	"livesec/internal/policy"
	"livesec/internal/seproto"
	"livesec/internal/service"
	"livesec/internal/sim"
)

// Flow-entry priorities used by the controller. Higher wins.
const (
	prioDrop    uint16 = 400 // security drop rules (§IV.A)
	prioSteer   uint16 = 300 // steering entries at service-element switches
	prioForward uint16 = 200 // end-to-end forwarding entries
)

// Defaults and fixed periods.
const (
	defaultFlowIdle    = 30 * time.Second
	defaultHostTTL     = 300 * time.Second
	lldpPeriod         = 5 * time.Second // topology-discovery refresh
	defaultSETimeout   = 3 * service.HeartbeatInterval
	housekeepingPeriod = time.Second
)

// Config configures a Controller.
type Config struct {
	// Engine drives virtual time. Required.
	Engine *sim.Engine
	// Store receives monitoring events; nil disables monitoring.
	Store *monitor.Store
	// Policies is the global policy table; nil means allow-all.
	Policies *policy.Table
	// Secret seeds service-element certification.
	Secret []byte
	// SteerReverse also steers the reply direction of chained sessions
	// through the same elements (bidirectional session handling,
	// §III.C.3). Defaults to true; set SteerForwardOnly to disable.
	SteerForwardOnly bool
	// FlowIdle is the idle timeout of installed data entries.
	FlowIdle time.Duration
	// HostTTL expires silent hosts from the routing table.
	HostTTL time.Duration
	// Seed makes load-balancer tie-breaking reproducible.
	Seed int64
	// DHCP enables controller-managed address leasing (directory proxy,
	// §III.C.2). Zero disables it.
	DHCP DHCPPool
	// UseBarriers synchronizes first-packet release with OpenFlow
	// barriers so the packet cannot overtake its own flow entries on
	// multi-switch paths.
	UseBarriers bool

	// PacketInCost models the controller's serialized per-packet-in
	// processing cost (overload.go): each packet-in occupies the
	// single-threaded controller for this much virtual time, once, so
	// storms build real backlogs. Zero (the default) serves inline.
	PacketInCost time.Duration
	// OverloadProtection defends the ingress pipeline (overload.go): a
	// priority lane for non-packet-in messages, per-switch and
	// per-source-MAC admission token buckets, a bounded per-switch
	// packet-in queue, and dataplane suppression entries for shedding
	// sources. Its budgets, queue bound and suppression hold are
	// constants in overload.go.
	OverloadProtection bool

	// Obs receives the controller's observability (internal/obs):
	// sampled controller/engine metrics and per-flow setup trace spans,
	// exported through the monitor HTTP API. Nil (the default) gets the
	// controller its own FlowObs (Controller.Obs); set it only to share
	// one registry with the caller.
	Obs *obs.FlowObs

	// FWHandoffTimeout bounds how long a firewall state handoff
	// (fwstate.go) may wait for the successor's STATE_ACK before it is
	// counted as failed (the session then relearns from scratch).
	// Default 10ms.
	FWHandoffTimeout time.Duration
}

// switchState is one registered AS switch.
type switchState struct {
	dpid  uint64
	conn  openflow.Conn
	name  string
	ports map[uint32]openflow.PortDesc
	// uplinks are ports with discovered logical links to peer switches.
	uplinks map[uint32]bool
	// peers maps a reachable peer dpid to the local output port.
	peers map[uint64]uint32
	ready bool // features reply received

	// Liveness state (resilience.go). down: declared unreachable after
	// missed echoes; resyncing: reconnect handshake in flight.
	down        bool
	resyncing   bool
	echoXID     uint32
	echoPending bool
	echoMisses  int
	// probeAttempt/nextProbe drive the backoff schedule while down.
	probeAttempt int
	nextProbe    time.Duration
	// resync bookkeeping; resyncSent counts the entries the last attempt
	// reinstalled.
	resyncXID     uint32
	resyncAttempt int
	resyncSent    int
	// shadow mirrors the entries sent to this switch that no session owns
	// (drops, suppressions) so a resync can reinstall them; shadowSeq
	// preserves emission order for the replay.
	shadow    map[shadowKey]*shadowEntry
	shadowSeq uint64
}

// HostLoc is one routing-table entry (§III.C.2: connected AS switch,
// port, addresses).
type HostLoc struct {
	MAC      netpkt.MAC
	IP       netpkt.IPv4Addr
	DPID     uint64
	Port     uint32
	LastSeen time.Duration
	// SEID is nonzero when the host is a registered service element.
	SEID uint64
}

// seState is one registered service element.
type seState struct {
	id       uint64
	mac      netpkt.MAC
	ip       netpkt.IPv4Addr
	dpid     uint64
	port     uint32
	service  seproto.ServiceType
	capacity uint64
	load     seproto.Load
	lastSeen time.Duration
	// cert is the certificate the element's ONLINE was verified with;
	// every later datagram naming the element must carry it
	// (fromElement).
	cert seproto.Cert
	// pendingAssign counts flows assigned since the element's last load
	// report; it keeps minimum-load dispatch balanced between heartbeats
	// instead of herding every new flow onto the same element.
	pendingAssign uint64

	// Circuit-breaker state (breaker.go).
	// prevPackets is the processed-packet counter from the previous load
	// report, so a stagnant counter with work assigned exposes a wedged
	// element that still heartbeats.
	brState     breakerState
	brFails     int
	brTrips     int
	brOpenUntil time.Duration
	brProbing   bool
	prevPackets uint64
}

// Stats counts controller activity. Every counter has a reader outside
// tests — a metric (obs_hooks.go), /health, an experiment row, the
// benchmark, or WriteOutcome, the part golden tests hash — or it goes.
type Stats struct {
	PacketIns    uint64
	FlowModsSent uint64
	PacketOuts   uint64
	ARPProxied   uint64
	FlowsRouted  uint64
	FlowsChained uint64
	FlowsBlocked uint64
	SEEvents     uint64
	DropRules    uint64

	// Flow-setup fast-path counters (see cache.go).
	DecisionCacheHits   uint64
	DecisionCacheMisses uint64
	PlanCacheHits       uint64
	PlanCacheMisses     uint64

	// Resilience counters (see resilience.go). EchoMisses counts echo
	// requests unanswered by the next keepalive sweep, the first sign of
	// a starved control channel.
	EchoMisses      uint64
	Resyncs         uint64
	SessionsDrained uint64
	FlowsFailedOpen uint64

	// Overload-protection counters (see overload.go).
	PacketInsShed uint64
	SuppressRules uint64

	// Circuit-breaker counters (see breaker.go).
	BreakerTrips  uint64
	BreakerCloses uint64
	BreakerSkips  uint64

	// Controller-outage counters (see outage.go): messages parked, and
	// messages dropped past the parked queue's bound.
	ParkedMsgs  uint64
	ParkedDrops uint64

	// Stateful-firewall state-migration counters (see fwstate.go).
	// FWStateSyncs counts STATE_SYNC datagrams mirrored; FWHandoffOK /
	// FWHandoffTimeout split STATE_INSTALL transfers by outcome (ack
	// within the bounded timeout vs fallback to drop-and-relearn).
	// FWSyncErrors counts malformed or version-skewed service-element
	// datagrams, which surface as monitor events.
	FWStateSyncs     uint64
	FWHandoffOK      uint64
	FWHandoffTimeout uint64
	FWSyncErrors     uint64
}

// Controller is the LiveSec controller.
type Controller struct {
	cfg       Config
	eng       *sim.Engine
	store     *monitor.Store
	policies  *policy.Table
	certifier *seproto.Certifier

	switches map[uint64]*switchState
	hosts    map[netpkt.MAC]*HostLoc
	byIP     map[netpkt.IPv4Addr]netpkt.MAC
	elements map[uint64]*seState
	byMAC    map[netpkt.MAC]*seState
	// elemOrder holds the registered elements in ascending ID order, kept
	// in step with the elements map by addElement/removeElement
	// (sedaemon.go). Everything that walks the element set — the per-setup
	// pick, housekeeping, snapshots — ranges it instead of collecting and
	// sorting map keys. pickCands is pickElement's reused candidate buffer.
	elemOrder []*seState
	pickCands []loadbalance.Candidate
	// bySvc holds each service's elements in ascending ID order, kept in
	// step with elemOrder: the elements pickElement chooses among.
	bySvc map[seproto.ServiceType][]*seState

	balancers map[balancerKey]*loadbalance.Balancer
	nextXID   uint32
	stops     []func()

	// blockedUsers tracks users with installed drop rules so repeated
	// events do not reinstall.
	blockedUsers map[netpkt.MAC]bool
	// appPolicies maps identified application protocols to reactions
	// (§IV.C aggregate flow control).
	appPolicies map[string]AppAction
	// leases is the DHCP directory: MAC → leased IP.
	leases map[netpkt.MAC]netpkt.IPv4Addr
	// portSamples/portLoads back the link-load monitoring (§IV.D).
	portSamples map[[2]uint64]portSample
	portLoads   map[[2]uint64]PortLoad
	// tableStats holds the latest per-switch flow-table and
	// microflow-cache counters from OFPST_TABLE polling.
	tableStats map[uint64]TableStats
	// sessions tracks installed flows for live policy re-application;
	// routes interns what its slots name, and failOpen holds each
	// fail-open session's install time, which opens its
	// policy-violation window (sessions.go).
	sessions sessionStore
	routes   routeTable
	failOpen map[flow.Key]time.Duration
	// discoverPending debounces join-triggered discovery rounds.
	discoverPending bool
	// pendingReleases holds packet-outs awaiting barrier replies.
	pendingReleases map[uint32]*pendingRelease
	// pendingResyncs maps a resync barrier xid to the switch awaiting
	// confirmation (resilience.go).
	pendingResyncs map[uint32]*switchState
	// sessionSeq orders session records so drains and re-steers iterate
	// deterministically; violationAccum totals closed fail-open windows.
	sessionSeq     uint64
	violationAccum time.Duration

	// cache memoizes policy decisions and install plans (cache.go); emit
	// is the reusable per-setup message batcher (the controller is
	// single-threaded on the simulation event loop).
	cache *decisionCache
	emit  emitter
	// frame is what every packet-in's frame decodes into; scratchPlan,
	// chainBuf, seIDBuf and hops are what a setup is planned in
	// (routing.go). All are reused across setups, which never nest: the
	// ingress pipeline serves one message at a time.
	frame       netpkt.Decoder
	scratchPlan sessionPlan
	chainBuf    []hop
	seIDBuf     []uint64
	hops        []hop

	// intents is the runtime intent→rule compiler (internal/intent)
	// managing the "intent:" namespace of the policy table. Inert until
	// the first Upsert, so its existence changes nothing by default.
	intents *intent.Compiler

	// ov is the ingress pipeline (overload.go).
	ov overloadState

	// Whole-controller outage (outage.go): down from Fail to Recover;
	// holding from Fail until parked, the messages held meanwhile, has
	// drained.
	down, holding bool
	downSince     time.Duration
	parked        []ingressItem

	// Stateful-firewall state mirror (fwstate.go): fwMirror holds what
	// firewall elements synced, so while it is empty the per-setup handoff
	// hook costs a length test. fwPending tracks in-flight handoffs by id
	// until their ack or timeout.
	fwMirror      map[seproto.SessionKey]*fwMirrorEntry
	fwPending     map[uint64]*fwHandoff
	fwNextHandoff uint64

	// Observability (obs_hooks.go). obsAcceptedAt is
	// when the packet-in being dispatched entered the ingress pipeline;
	// curSpan is the flow-setup span open between routeFlow and
	// finishSetup (the controller is single-threaded, so at most one
	// setup is in flight outside barrier waits).
	obs           *obs.FlowObs
	obsAcceptedAt time.Duration
	curSpan       *obs.Span
	alerts        *obs.AlertEngine // ticks from New until Shutdown

	stats Stats
}

type balancerKey struct {
	algo  loadbalance.Algorithm
	grain loadbalance.Grain
}

// New creates a controller and starts its SLO alert engine. Call
// AddSwitch for each AS switch's secure channel, then Start to begin
// discovery and housekeeping.
func New(cfg Config) *Controller {
	if cfg.Engine == nil {
		panic("core: Config.Engine is required")
	}
	if cfg.Policies == nil {
		cfg.Policies = policy.NewTable(policy.Allow)
	}
	if cfg.FlowIdle == 0 {
		cfg.FlowIdle = defaultFlowIdle
	}
	if cfg.HostTTL == 0 {
		cfg.HostTTL = defaultHostTTL
	}
	if len(cfg.Secret) == 0 {
		cfg.Secret = []byte("livesec-default-secret")
	}
	if cfg.FWHandoffTimeout == 0 {
		cfg.FWHandoffTimeout = defaultFWHandoffTimeout
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewFlowObs(0)
	}
	c := &Controller{
		cfg:          cfg,
		eng:          cfg.Engine,
		store:        cfg.Store,
		policies:     cfg.Policies,
		certifier:    seproto.NewCertifier(cfg.Secret),
		switches:     make(map[uint64]*switchState),
		hosts:        make(map[netpkt.MAC]*HostLoc),
		byIP:         make(map[netpkt.IPv4Addr]netpkt.MAC),
		elements:     make(map[uint64]*seState),
		byMAC:        make(map[netpkt.MAC]*seState),
		bySvc:        make(map[seproto.ServiceType][]*seState),
		balancers:    make(map[balancerKey]*loadbalance.Balancer),
		blockedUsers: make(map[netpkt.MAC]bool),
		leases:       make(map[netpkt.MAC]netpkt.IPv4Addr),
		cache:        newDecisionCache(),
		fwMirror:     make(map[seproto.SessionKey]*fwMirrorEntry),
		fwPending:    make(map[uint64]*fwHandoff),
		sessions:     sessionStore{seed: maphash.MakeSeed()},
		failOpen:     make(map[flow.Key]time.Duration),
		obs:          cfg.Obs,
		ov: overloadState{
			perSwitch:  make(map[uint64]int),
			swBuckets:  make(map[uint64]*tokenBucket),
			srcBuckets: make(map[netpkt.MAC]*tokenBucket),
			suppressed: make(map[suppressKey]time.Duration),
		},
	}
	c.intents = intent.New(c.policies)
	c.obsRegister()
	// Intent compile timing is real wall clock: recompilation is real
	// compute, not simulated activity. Deterministic (-stable) runs never
	// edit intents, so the histogram stays empty there.
	c.intents.SetHooks(intent.Hooks{
		Now:            time.Now,
		CompileSeconds: c.obs.PolicyCompile.Observe,
		IntentCount:    func(n int) { c.obs.Intents.Set(float64(n)) },
	})
	c.alerts = obs.NewAlertEngine(c.obs, 0, obs.DefaultRules(c.obs))
	if c.store != nil {
		c.alerts.OnTransition = c.store.RecordAlert
	}
	// Last: no event New schedules may precede the first tick.
	c.stops = append(c.stops, c.eng.Ticker(c.alerts.Interval(), func() { c.alerts.Tick(c.eng.Now()) }))
	return c
}

// Obs returns the controller's observability: its metric registry, span
// ring and setup-latency histogram.
func (c *Controller) Obs() *obs.FlowObs { return c.obs }

// Intents returns the controller's intent compiler. Edits apply to the
// live policy table immediately; an edit empties the decision cache, so
// the next flow setup asks the updated classifier.
func (c *Controller) Intents() *intent.Compiler { return c.intents }

// sortedSwitches returns registered switches in ascending dpid order so
// message emission and event recording are deterministic (map iteration
// order is randomized in Go).
func (c *Controller) sortedSwitches() []*switchState {
	out := make([]*switchState, 0, len(c.switches))
	for _, st := range c.switches {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].dpid < out[j].dpid })
	return out
}

// sortedHosts returns routing-table entries ordered by MAC.
func (c *Controller) sortedHosts() []*HostLoc {
	out := make([]*HostLoc, 0, len(c.hosts))
	for _, h := range c.hosts {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool {
		return bytesLessMAC(out[i].MAC, out[j].MAC)
	})
	return out
}

func bytesLessMAC(a, b netpkt.MAC) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// Stats returns a copy of the controller counters.
func (c *Controller) Stats() Stats { return c.stats }

// Policies returns the live policy table.
func (c *Controller) Policies() *policy.Table { return c.policies }

// Certify issues a service-element certificate (the administrator hands
// it to the element at provisioning time).
func (c *Controller) Certify(seID uint64, mac netpkt.MAC) seproto.Cert {
	return c.certifier.Issue(seID, mac)
}

func (c *Controller) xid() uint32 {
	c.nextXID++
	return c.nextXID
}

// AddSwitch registers the controller side of an AS switch secure
// channel and starts the OpenFlow handshake.
func (c *Controller) AddSwitch(conn openflow.Conn) {
	st := &switchState{
		conn:    conn,
		ports:   make(map[uint32]openflow.PortDesc),
		uplinks: make(map[uint32]bool),
		peers:   make(map[uint64]uint32),
	}
	conn.SetHandler(func(m openflow.Message) { c.handleMessage(st, m) })
	conn.Send(&openflow.Hello{XID: c.xid()})
	conn.Send(&openflow.FeaturesRequest{XID: c.xid()})
}

// Start launches periodic topology discovery, housekeeping and liveness
// probing. It returns immediately; activity happens on the simulation engine.
func (c *Controller) Start() {
	c.stops = append(c.stops,
		c.eng.Ticker(lldpPeriod, c.DiscoverNow),
		c.eng.Ticker(housekeepingPeriod, c.housekeep),
		c.eng.Ticker(echoInterval, c.keepaliveSweep),
	)
}

// Shutdown stops periodic activity, the alert tick included.
func (c *Controller) Shutdown() {
	for _, stop := range c.stops {
		stop()
	}
	c.stops = nil
}

// handleMessage receives every control-channel message. During an
// outage (outage.go) it parks; otherwise it accepts the message now.
func (c *Controller) handleMessage(st *switchState, m openflow.Message) {
	if it := (ingressItem{st, m, c.eng.Now()}); !c.holding || !c.park(it) {
		c.accept(it)
	}
}

// dispatch routes one message the ingress pipeline serves.
func (c *Controller) dispatch(it ingressItem) {
	c.obsAcceptedAt = it.at
	switch msg := it.m.(type) {
	case *openflow.Hello:
		// Handshake: nothing further here; features request already sent.
	case *openflow.EchoRequest:
		it.st.conn.Send(&openflow.EchoReply{XID: msg.XID, Data: msg.Data})
	case *openflow.FeaturesReply:
		c.registerSwitch(it.st, msg)
	case *openflow.PacketIn:
		c.handlePacketIn(it.st, msg)
	case *openflow.FlowRemoved:
		c.handleFlowRemoved(it.st, msg)
	case *openflow.PortStatus:
		c.handlePortStatus(it.st, msg)
	case *openflow.StatsReply:
		switch msg.Kind {
		case openflow.StatsPort:
			c.handlePortStats(it.st, msg)
		case openflow.StatsTable:
			c.handleTableStats(it.st, msg)
		}
	case *openflow.BarrierReply:
		c.handleBarrierReply(msg.XID)
	case *openflow.EchoReply:
		c.handleEchoReply(it.st, msg)
	case *openflow.ErrorMsg:
		c.record(monitor.Event{Type: monitor.EventSwitchError, Switch: it.st.dpid,
			Detail: fmt.Sprintf("error code %d: %s", msg.Code, msg.Data)})
	}
}

func (c *Controller) registerSwitch(st *switchState, fr *openflow.FeaturesReply) {
	// A features reply from an already-registered switch is the resync
	// handshake refreshing the port inventory after an outage: update
	// state and re-probe the topology, but do not announce a new join.
	rejoin := st.ready && c.switches[fr.DPID] == st
	st.dpid = fr.DPID
	st.ready = true
	for _, p := range fr.Ports {
		st.ports[p.No] = p
		if st.name == "" && p.Name != "" {
			// Port names are "<switch>-p<no>"; recover the switch name.
			for i := len(p.Name) - 1; i >= 0; i-- {
				if p.Name[i] == '-' {
					st.name = p.Name[:i]
					break
				}
			}
		}
	}
	c.switches[fr.DPID] = st
	if !rejoin {
		c.record(monitor.Event{Type: monitor.EventSwitchJoin, Switch: fr.DPID, Detail: st.name})
	}
	// Kick a full discovery round: the newcomer probes its links, and
	// existing switches re-probe so both directions of every new logical
	// link are learned without waiting for the periodic LLDP tick. The
	// round is debounced so a batch of joining switches (network boot)
	// triggers one round instead of one per join.
	if !c.discoverPending {
		c.discoverPending = true
		c.eng.Schedule(time.Millisecond, func() {
			c.discoverPending = false
			c.DiscoverNow()
		})
	}
}

// handlePortStatus keeps the switch's port inventory current (hosts and
// elements can be attached while the datapath is live).
func (c *Controller) handlePortStatus(st *switchState, ps *openflow.PortStatus) {
	switch ps.Reason {
	case openflow.PortAdded, openflow.PortModified:
		st.ports[ps.Desc.No] = ps.Desc
	case openflow.PortDeleted:
		delete(st.ports, ps.Desc.No)
		delete(st.uplinks, ps.Desc.No)
	}
}

// record writes a monitoring event stamped with virtual time.
func (c *Controller) record(ev monitor.Event) {
	if c.store == nil {
		return
	}
	ev.At = c.eng.Now()
	c.store.Record(ev)
}

// sendFlowMod sends a FlowMod that is not part of a session's plan,
// counts it and mirrors it into the switch's shadow (trackFlowMod).
func (c *Controller) sendFlowMod(st *switchState, fm *openflow.FlowMod) {
	c.trackFlowMod(st, fm)
	fm.XID = c.xid()
	st.conn.Send(fm)
	c.stats.FlowModsSent++
}

// sendPacketOut sends a PacketOut and counts it.
func (c *Controller) sendPacketOut(st *switchState, po *openflow.PacketOut) {
	po.XID = c.xid()
	st.conn.Send(po)
	c.stats.PacketOuts++
}

// housekeep expires silent hosts and service elements (in deterministic
// order so event logs reproduce bit-for-bit).
func (c *Controller) housekeep() {
	if c.holding {
		return // an outage's evidence is parked, not absent
	}
	now := c.eng.Now()
	for _, h := range c.sortedHosts() {
		if h.SEID != 0 {
			continue // elements expire via heartbeat timeout below
		}
		if now-h.LastSeen > c.cfg.HostTTL {
			delete(c.hosts, h.MAC)
			if c.byIP[h.IP] == h.MAC {
				delete(c.byIP, h.IP)
			}
			// Invalidation trigger 1 (cache.go): the expired host's plans
			// would route to a stale attachment point.
			c.cache.invalidateHost(h.MAC)
			c.forgetUser(h.MAC)
			c.record(monitor.Event{Type: monitor.EventUserLeave,
				User: h.MAC.String(), IP: h.IP.String(), Switch: h.DPID})
		}
	}
	for i := 0; i < len(c.elemOrder); {
		se := c.elemOrder[i]
		if now-se.lastSeen <= defaultSETimeout {
			i++
			continue
		}
		// Removal shifts the next element into slot i.
		c.removeElement(se.id)
		delete(c.byMAC, se.mac)
		delete(c.hosts, se.mac)
		// Invalidation trigger 2 (cache.go): plans steering through the
		// failed element are dead.
		c.cache.invalidateSE(se.id)
		c.cache.invalidateHost(se.mac)
		c.record(monitor.Event{Type: monitor.EventSEOffline, SE: se.id,
			Detail: se.service.String(), Switch: se.dpid})
		// Sessions steered through the dead element are torn down so
		// their next packet re-routes through surviving elements.
		c.drainElement(se.id)
	}
	c.overloadHousekeep(now)
	c.fwMirrorHousekeep(now)
}

// RemoveSwitch unregisters a departed AS switch (its secure channel
// closed or the device was decommissioned). Hosts and elements located
// there are forgotten; peers drop their logical links to it.
func (c *Controller) RemoveSwitch(dpid uint64) bool {
	st, ok := c.switches[dpid]
	if !ok {
		return false
	}
	delete(c.switches, dpid)
	_ = st.conn.Close()
	c.forgetSwitchStats(dpid)
	// Topology change: every cached plan may embed ports toward the
	// departed switch; clear everything (cache.go).
	c.cache.invalidateAll()
	for _, h := range c.sortedHosts() {
		if h.DPID != dpid {
			continue
		}
		mac := h.MAC
		delete(c.hosts, mac)
		if c.byIP[h.IP] == mac {
			delete(c.byIP, h.IP)
		}
		c.forgetUser(mac)
		if h.SEID != 0 {
			if se, ok := c.elements[h.SEID]; ok && se.dpid == dpid {
				c.removeElement(h.SEID)
				delete(c.byMAC, mac)
				c.record(monitor.Event{Type: monitor.EventSEOffline, SE: h.SEID, Switch: dpid})
				c.drainElement(h.SEID)
			}
		} else {
			c.record(monitor.Event{Type: monitor.EventUserLeave, User: mac.String(), Switch: dpid})
		}
	}
	for _, peer := range c.switches {
		delete(peer.peers, dpid)
	}
	c.record(monitor.Event{Type: monitor.EventSwitchLeave, Switch: dpid, Detail: st.name})
	return true
}

// Hosts returns a copy of the current routing table in MAC order.
func (c *Controller) Hosts() []HostLoc {
	hosts := c.sortedHosts()
	out := make([]HostLoc, len(hosts))
	for i, h := range hosts {
		out[i] = *h
	}
	return out
}

// HostByMAC looks up a routing-table entry.
func (c *Controller) HostByMAC(mac netpkt.MAC) (HostLoc, bool) {
	h, ok := c.hosts[mac]
	if !ok {
		return HostLoc{}, false
	}
	return *h, true
}

// ElementInfo is a read-only service-element snapshot.
type ElementInfo struct {
	ID       uint64
	MAC      netpkt.MAC
	Service  seproto.ServiceType
	DPID     uint64
	Port     uint32
	Capacity uint64
	Load     seproto.Load
}

// Elements returns registered service elements in ascending ID order
// (copy).
func (c *Controller) Elements() []ElementInfo {
	out := make([]ElementInfo, 0, len(c.elemOrder))
	for _, se := range c.elemOrder {
		out = append(out, ElementInfo{
			ID: se.id, MAC: se.mac, Service: se.service,
			DPID: se.dpid, Port: se.port, Capacity: se.capacity, Load: se.load,
		})
	}
	return out
}

// forgetUser drops a departed host's user-grain element pins, so the
// balancers' sticky state is bounded by the routing table — a flood of
// spoofed sources is forgotten with the hosts it created.
func (c *Controller) forgetUser(mac netpkt.MAC) {
	for _, b := range c.balancers {
		b.Forget(mac)
	}
}

// NumSwitches returns the count of registered AS switches.
func (c *Controller) NumSwitches() int { return len(c.switches) }

// balancer returns (creating on demand) the balancer for a policy's
// algorithm/grain combination. A rule that chooses neither gets the
// deployed default: minimum load, per flow.
func (c *Controller) balancer(algo loadbalance.Algorithm, grain loadbalance.Grain) *loadbalance.Balancer {
	if algo == 0 {
		algo = loadbalance.LeastLoad
	}
	if grain == 0 {
		grain = loadbalance.FlowGrain
	}
	k := balancerKey{algo, grain}
	b, ok := c.balancers[k]
	if !ok {
		b = loadbalance.New(algo, grain, c.cfg.Seed+int64(algo)*31+int64(grain))
		c.balancers[k] = b
	}
	return b
}
