// Package service implements VM-based service elements (§III.D.1): the
// off-path middleboxes LiveSec plugs into the Network-Periphery layer.
// An Element receives flows steered to its MAC address, runs a pluggable
// inspection engine (IDS, protocol identification, virus scanning,
// content inspection) at a bounded processing rate, emits the traffic
// back toward its original destination, and talks to the controller with
// the seproto daemon messages (periodic ONLINE load reports and EVENT
// verdicts).
package service

import (
	"time"

	"livesec/internal/flow"
	"livesec/internal/link"
	"livesec/internal/netpkt"
	"livesec/internal/seproto"
	"livesec/internal/sim"
)

// ControllerMAC and ControllerIP address the controller's virtual
// presence; seproto datagrams to them always miss the flow table and
// reach the controller as packet-ins.
var (
	ControllerMAC = netpkt.MAC{0x02, 0x00, 0x00, 0x00, 0xff, 0xfd}
	ControllerIP  = netpkt.IP(10, 255, 255, 254)
)

// HeartbeatInterval is how often elements send ONLINE reports.
const HeartbeatInterval = 500 * time.Millisecond

// DefaultCapacityBps is the paper's single-VM bypass throughput
// (§V.B.1: "single VM-based service element can reach about 500 Mbps").
const DefaultCapacityBps = 500_000_000

// defaultQueueBytes bounds the element's ingress queue.
const defaultQueueBytes = 512 << 10

// Verdict is one inspection result.
type Verdict struct {
	Class    seproto.EventClass
	Severity uint8
	SigID    uint32
	Detail   string
	// Drop, when set, makes the element discard the packet instead of
	// forwarding it on (inline enforcement — the stateful firewall's
	// strict-mode rejections). The verdict is still reported to the
	// controller as an event.
	Drop bool
}

// Inspector is a pluggable deep-inspection engine.
type Inspector interface {
	// ServiceType identifies the network service provided.
	ServiceType() seproto.ServiceType
	// Inspect examines one packet and returns zero or more verdicts.
	Inspect(pkt *netpkt.Packet) []Verdict
	// PerPacketCost is the fixed CPU cost added to each packet on top of
	// the byte-rate cost; it models header parsing and automaton setup.
	PerPacketCost() time.Duration
}

// StateSyncer is implemented by inspectors whose per-session state must
// survive re-steers (the stateful firewall). After each inspected
// packet the element drains the pending state transitions and reports
// them to the controller in a STATE_SYNC datagram, so the controller's
// mirror stays current even if the element later crashes.
type StateSyncer interface {
	// TakeStateSync returns the session-state transitions accumulated
	// since the previous call and resets the pending set.
	TakeStateSync() []seproto.SessionState
}

// StateInstaller is implemented by inspectors that can adopt migrated
// session state ahead of the first re-steered packet.
type StateInstaller interface {
	// InstallState merges the states into the inspector's tables and
	// returns how many were installed.
	InstallState(states []seproto.SessionState) int
}

// Config configures an Element.
type Config struct {
	ID   uint64
	Name string
	MAC  netpkt.MAC
	IP   netpkt.IPv4Addr
	// CapacityBps is the nominal processing rate; 0 means
	// DefaultCapacityBps.
	CapacityBps int64
	// QueueBytes bounds buffered traffic; 0 means 512 KiB.
	QueueBytes int
	// Inspector is the engine; nil puts the element in pure bypass mode
	// (forwarding at CapacityBps with no inspection).
	Inspector Inspector
	// Cert is the certificate issued by the controller.
	Cert seproto.Cert
}

// Stats are the element's processing counters.
type Stats struct {
	Packets uint64
	Bytes   uint64
	Drops   uint64
	Events  uint64
}

// queuedPacket is one packet in the element's ingress queue and the
// queue bytes it holds until it has been served.
type queuedPacket struct {
	pkt  *netpkt.Packet
	size int
}

// Element is one VM-based service element.
type Element struct {
	eng *sim.Engine
	cfg Config

	ep       link.Endpoint
	attached bool

	busyUntil time.Duration
	queued    int
	// ingress holds the packets waiting for or in service. Each finishes at
	// busyUntil, which only moves forward, so they finish in arrival order
	// — what sim.Pipe requires.
	ingress *sim.Pipe[queuedPacket]

	stats      Stats
	windowPkts uint64 // packets since the last heartbeat
	stopBeat   func()

	// Fault-injection state (driven by internal/chaos): a crashed element
	// stops heartbeating and drops traffic; a wedged one keeps
	// heartbeating but drops traffic; slow multiplies processing cost.
	crashed bool
	wedged  bool
	slow    float64

	// OnVerdict, if set, observes local verdicts (tests and examples).
	OnVerdict func(flow.Key, Verdict)

	// syncer/installer cache the inspector's optional state-migration
	// hooks so the packet path pays no type assertion.
	syncer    StateSyncer
	installer StateInstaller
}

// New creates a service element.
func New(eng *sim.Engine, cfg Config) *Element {
	if cfg.CapacityBps == 0 {
		cfg.CapacityBps = DefaultCapacityBps
	}
	if cfg.QueueBytes == 0 {
		cfg.QueueBytes = defaultQueueBytes
	}
	e := &Element{eng: eng, cfg: cfg}
	e.ingress = sim.NewPipe(eng, e.process)
	if cfg.Inspector != nil {
		e.syncer, _ = cfg.Inspector.(StateSyncer)
		e.installer, _ = cfg.Inspector.(StateInstaller)
	}
	return e
}

// ID returns the element identifier.
func (e *Element) ID() uint64 { return e.cfg.ID }

// MAC returns the element's address (the steering target).
func (e *Element) MAC() netpkt.MAC { return e.cfg.MAC }

// IP returns the element's address.
func (e *Element) IP() netpkt.IPv4Addr { return e.cfg.IP }

// ServiceType returns the provided network service.
func (e *Element) ServiceType() seproto.ServiceType {
	if e.cfg.Inspector == nil {
		return 0
	}
	return e.cfg.Inspector.ServiceType()
}

// Stats returns a copy of the processing counters.
func (e *Element) Stats() Stats { return e.stats }

// Attach wires the element to its access link and starts the daemon
// heartbeat.
func (e *Element) Attach(l *link.Link) {
	e.ep = l.From(e)
	e.attached = true
	if e.stopBeat == nil {
		e.stopBeat = e.eng.Ticker(HeartbeatInterval, e.heartbeat)
		// First ONLINE goes out immediately so the controller learns the
		// element without waiting a full interval.
		e.eng.Schedule(0, e.heartbeat)
	}
}

// Shutdown stops the heartbeat.
func (e *Element) Shutdown() {
	if e.stopBeat != nil {
		e.stopBeat()
		e.stopBeat = nil
	}
}

// Crash simulates a VM failure: heartbeats stop immediately and all
// traffic (queued or arriving) is dropped until Restore.
func (e *Element) Crash() {
	e.crashed = true
	if e.stopBeat != nil {
		e.stopBeat()
		e.stopBeat = nil
	}
}

// Restore revives a crashed element: heartbeats resume at once (so the
// controller re-learns it without waiting a full interval) and traffic
// processing restarts.
func (e *Element) Restore() {
	if !e.crashed {
		return
	}
	e.crashed = false
	if e.attached && e.stopBeat == nil {
		e.stopBeat = e.eng.Ticker(HeartbeatInterval, e.heartbeat)
		e.eng.Schedule(0, e.heartbeat)
	}
}

// SetSlowdown multiplies the element's per-packet processing cost by
// factor (≥1); 1 restores nominal speed.
func (e *Element) SetSlowdown(factor float64) {
	if factor < 1 {
		factor = 1
	}
	e.slow = factor
}

// SetWedged puts the element in (or takes it out of) the wedged failure
// mode: heartbeats continue, so the controller believes it healthy, but
// all data traffic is silently dropped.
func (e *Element) SetWedged(wedged bool) { e.wedged = wedged }

// Receive implements link.Node: a steered packet arrived for processing.
// Steered traffic is always unicast IP; L2 control traffic (ARP floods,
// LLDP probes, broadcasts) that reaches the VM is ignored rather than
// bounced back into the network.
func (e *Element) Receive(_ uint32, pkt *netpkt.Packet) {
	if pkt.IP == nil || pkt.EthDst.IsBroadcast() {
		return
	}
	// Controller → element control traffic (state-handoff installs) is
	// addressed to the element itself on the seproto port; it bypasses
	// the data-plane queue model so migrated state beats the first
	// re-steered packet. A crashed VM is deaf to it.
	if pkt.UDP != nil && pkt.IP.Dst == e.cfg.IP &&
		pkt.UDP.DstPort == seproto.Port && seproto.IsSEProto(pkt.Payload) {
		if !e.crashed {
			e.handleControl(pkt)
		}
		return
	}
	if e.crashed || e.wedged {
		e.stats.Drops++
		return
	}
	size := pkt.WireLen()
	if e.queued+size > e.cfg.QueueBytes {
		e.stats.Drops++
		return
	}
	now := e.eng.Now()
	start := e.busyUntil
	if start < now {
		start = now
	}
	cost := time.Duration(int64(size) * 8 * int64(time.Second) / e.cfg.CapacityBps)
	if e.cfg.Inspector != nil {
		cost += e.cfg.Inspector.PerPacketCost()
	}
	if e.slow > 1 {
		cost = time.Duration(float64(cost) * e.slow)
	}
	e.busyUntil = start + cost
	e.queued += size
	e.ingress.At(e.busyUntil, queuedPacket{pkt, size})
}

func (e *Element) process(q queuedPacket) {
	pkt := q.pkt
	e.queued -= q.size
	if e.crashed || e.wedged {
		// The packet was queued before the fault hit; it dies with the VM.
		e.stats.Drops++
		return
	}
	e.stats.Packets++
	e.stats.Bytes += uint64(pkt.WireLen())
	e.windowPkts++
	drop := false
	if e.cfg.Inspector != nil {
		for _, v := range e.cfg.Inspector.Inspect(pkt) {
			key := flow.KeyOf(0, pkt)
			e.stats.Events++
			if e.OnVerdict != nil {
				e.OnVerdict(key, v)
			}
			e.reportEvent(key, v)
			drop = drop || v.Drop
		}
		if e.syncer != nil {
			if states := e.syncer.TakeStateSync(); len(states) > 0 {
				e.sendToController(seproto.MarshalStateSync(&seproto.StateSync{
					SEID: e.cfg.ID, Cert: e.cfg.Cert, States: states,
				}))
			}
		}
	}
	if drop {
		// Inline enforcement: the packet dies here instead of being
		// bypassed back toward its destination.
		e.stats.Drops++
		return
	}
	// Bypass mode (§V.B.1): the checked packet leaves unchanged; the AS
	// switch's flow entry rewrites dl_dst back to the original target.
	if e.attached {
		e.ep.Send(pkt)
	}
}

// handleControl processes a controller → element seproto datagram:
// currently only STATE_INSTALL, the state-handoff transfer, which is
// acked so the controller can count the migration as completed.
func (e *Element) handleControl(pkt *netpkt.Packet) {
	msg, err := seproto.Parse(pkt.Payload)
	if err != nil {
		return
	}
	m, ok := msg.(*seproto.StateInstall)
	if !ok {
		return
	}
	if e.wedged {
		// The VM's packet path is hung; the install neither lands nor
		// acks, so the controller's bounded handoff timeout fires and the
		// migration falls back to drop-and-relearn.
		return
	}
	installed := 0
	if e.installer != nil {
		installed = e.installer.InstallState(m.States)
	}
	e.sendToController(seproto.MarshalStateAck(&seproto.StateAck{
		SEID: e.cfg.ID, Cert: e.cfg.Cert,
		HandoffID: m.HandoffID, Installed: uint16(installed),
	}))
}

func (e *Element) reportEvent(key flow.Key, v Verdict) {
	payload := seproto.MarshalEvent(&seproto.Event{
		SEID:     e.cfg.ID,
		Cert:     e.cfg.Cert,
		Class:    v.Class,
		Severity: v.Severity,
		SigID:    v.SigID,
		Flow:     key,
		Detail:   v.Detail,
	})
	e.sendToController(payload)
}

func (e *Element) heartbeat() {
	if !e.attached {
		return
	}
	interval := HeartbeatInterval.Seconds()
	pps := uint32(float64(e.windowPkts) / interval)
	e.windowPkts = 0
	cpu := uint16(0)
	if e.busyUntil > e.eng.Now() {
		cpu = 1000 // saturated
	} else if pps > 0 {
		// Approximate utilization from the achieved rate vs capacity.
		util := float64(pps) * 1500 * 8 / float64(e.cfg.CapacityBps)
		if util > 1 {
			util = 1
		}
		cpu = uint16(util * 1000)
	}
	payload := seproto.MarshalOnline(&seproto.Online{
		SEID:        e.cfg.ID,
		Service:     e.ServiceType(),
		Cert:        e.cfg.Cert,
		CapacityBps: uint64(e.cfg.CapacityBps),
		Load: seproto.Load{
			CPUPermille: cpu,
			MemPermille: 300,
			PPS:         pps,
			Packets:     e.stats.Packets,
			Bytes:       e.stats.Bytes,
			QueueLen:    uint32(e.queued),
		},
	})
	e.sendToController(payload)
}

func (e *Element) sendToController(payload []byte) {
	if !e.attached {
		return
	}
	pkt := netpkt.NewUDP(e.cfg.MAC, ControllerMAC, e.cfg.IP, ControllerIP,
		seproto.Port, seproto.Port, payload)
	e.ep.Send(pkt)
}
