// Package chaos is a deterministic fault-injection layer for the
// simulated deployment. A FaultPlan is a scripted sequence of events —
// switch secure-channel disconnects and reconnects, link flaps and
// degradations, service-element crashes, slow-downs and wedges, and
// control-channel message drop/duplication — executed on the simulation
// clock by an Injector.
//
// Design constraints:
//
//   - Zero overhead when disabled. An empty plan schedules no simulator
//     events, and a clean Channel (no active faults) forwards every
//     message straight to the wrapped transport without allocating, so a
//     chaos-enabled run with an empty plan is byte-identical to a run
//     without the layer.
//   - Deterministic. Faults fire at scripted virtual times and the
//     drop/duplication filters are counter-based (every Nth message),
//     never randomized, so the injector draws nothing from any RNG
//     stream and cannot perturb the simulation's reproducibility.
//   - Non-invasive. The layer wraps transports and drives the small
//     administrative hooks the components already expose (link.SetUp,
//     element Crash/Restore); none of the happy-path code changes.
package chaos

import (
	"sort"
	"time"

	"livesec/internal/openflow"
	"livesec/internal/sim"
)

// Kind enumerates fault-plan event types.
type Kind int

// Fault kinds.
const (
	// SwitchDisconnect severs a switch's secure channel in both
	// directions; SwitchReconnect restores it.
	SwitchDisconnect Kind = iota + 1
	SwitchReconnect
	// LinkDown/LinkUp flap a registered link administratively.
	LinkDown
	LinkUp
	// LinkDegrade scales a link's line rate by Factor (0 < f < 1);
	// LinkRestore returns it to the configured rate.
	LinkDegrade
	LinkRestore
	// SECrash kills a service element (heartbeats stop, traffic is
	// dropped); SERestart revives it.
	SECrash
	SERestart
	// SESlow multiplies an element's per-packet processing cost by
	// Factor; SENormal restores it.
	SESlow
	SENormal
	// SEWedge is the nastier failure: the element keeps heartbeating but
	// silently drops all data traffic. SEUnwedge recovers it.
	SEWedge
	SEUnwedge
	// CtrlDrop drops every Nth message on a switch's control channel
	// (both directions, independent counters); N=0 disables. CtrlDup
	// duplicates every Nth message the same way. Both can be scoped to
	// one OpenFlow message type via Event.MsgType (CtrlDropType /
	// CtrlDupType), e.g. dropping packet-ins without perturbing echo
	// traffic.
	CtrlDrop
	CtrlDup
	// FloodStart makes a registered flooder host generate novel-flow
	// packets at N packets/second (a packet-in storm at its ingress
	// switch); FloodStop ends it.
	FloodStart
	FloodStop
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case SwitchDisconnect:
		return "switch-disconnect"
	case SwitchReconnect:
		return "switch-reconnect"
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	case LinkDegrade:
		return "link-degrade"
	case LinkRestore:
		return "link-restore"
	case SECrash:
		return "se-crash"
	case SERestart:
		return "se-restart"
	case SESlow:
		return "se-slow"
	case SENormal:
		return "se-normal"
	case SEWedge:
		return "se-wedge"
	case SEUnwedge:
		return "se-unwedge"
	case CtrlDrop:
		return "ctrl-drop"
	case CtrlDup:
		return "ctrl-dup"
	case FloodStart:
		return "flood-start"
	case FloodStop:
		return "flood-stop"
	default:
		return "unknown"
	}
}

// Event is one scheduled fault. Only the fields relevant to the Kind are
// read: DPID for switch/control-channel faults, LinkID for link faults,
// SEID for element faults, HostID for flood faults, N for
// drop/duplication periods and flood rates, Factor for degradations and
// slow-downs, MsgType to scope drop/duplication to one message type.
type Event struct {
	At     time.Duration
	Kind   Kind
	DPID   uint64
	SEID   uint64
	LinkID int
	HostID int
	N      int
	Factor float64
	// MsgType scopes CtrlDrop/CtrlDup to one OpenFlow message type
	// (openflow.MsgType); 0 applies to every message. (Hello shares
	// wire type 0 and therefore cannot be targeted alone.)
	MsgType openflow.MsgType
}

// Plan is an ordered fault script. The zero value is the empty plan.
type Plan struct {
	events []Event
}

// NewPlan creates an empty plan.
func NewPlan() *Plan { return &Plan{} }

// Empty reports whether the plan schedules nothing.
func (p *Plan) Empty() bool { return p == nil || len(p.events) == 0 }

// Events returns the scripted events (copy).
func (p *Plan) Events() []Event {
	if p == nil {
		return nil
	}
	return append([]Event(nil), p.events...)
}

// Add appends an arbitrary event.
func (p *Plan) Add(e Event) *Plan {
	p.events = append(p.events, e)
	return p
}

// SwitchDisconnect schedules a secure-channel outage for dpid.
func (p *Plan) SwitchDisconnect(at time.Duration, dpid uint64) *Plan {
	return p.Add(Event{At: at, Kind: SwitchDisconnect, DPID: dpid})
}

// SwitchReconnect schedules the channel's recovery.
func (p *Plan) SwitchReconnect(at time.Duration, dpid uint64) *Plan {
	return p.Add(Event{At: at, Kind: SwitchReconnect, DPID: dpid})
}

// LinkDown schedules an administrative link failure.
func (p *Plan) LinkDown(at time.Duration, linkID int) *Plan {
	return p.Add(Event{At: at, Kind: LinkDown, LinkID: linkID})
}

// LinkUp schedules the link's recovery.
func (p *Plan) LinkUp(at time.Duration, linkID int) *Plan {
	return p.Add(Event{At: at, Kind: LinkUp, LinkID: linkID})
}

// LinkDegrade schedules a rate degradation to factor × configured rate.
func (p *Plan) LinkDegrade(at time.Duration, linkID int, factor float64) *Plan {
	return p.Add(Event{At: at, Kind: LinkDegrade, LinkID: linkID, Factor: factor})
}

// LinkRestore schedules the return to the configured rate.
func (p *Plan) LinkRestore(at time.Duration, linkID int) *Plan {
	return p.Add(Event{At: at, Kind: LinkRestore, LinkID: linkID})
}

// SECrash schedules a service-element crash.
func (p *Plan) SECrash(at time.Duration, seID uint64) *Plan {
	return p.Add(Event{At: at, Kind: SECrash, SEID: seID})
}

// SERestart schedules the element's recovery.
func (p *Plan) SERestart(at time.Duration, seID uint64) *Plan {
	return p.Add(Event{At: at, Kind: SERestart, SEID: seID})
}

// SESlow schedules a processing slow-down by factor (≥1).
func (p *Plan) SESlow(at time.Duration, seID uint64, factor float64) *Plan {
	return p.Add(Event{At: at, Kind: SESlow, SEID: seID, Factor: factor})
}

// SENormal schedules the return to nominal processing speed.
func (p *Plan) SENormal(at time.Duration, seID uint64) *Plan {
	return p.Add(Event{At: at, Kind: SENormal, SEID: seID})
}

// SEWedge schedules a wedge: heartbeats continue, data traffic is
// silently dropped.
func (p *Plan) SEWedge(at time.Duration, seID uint64) *Plan {
	return p.Add(Event{At: at, Kind: SEWedge, SEID: seID})
}

// SEUnwedge schedules the wedge's recovery.
func (p *Plan) SEUnwedge(at time.Duration, seID uint64) *Plan {
	return p.Add(Event{At: at, Kind: SEUnwedge, SEID: seID})
}

// CtrlDrop schedules dropping every nth control-channel message of the
// switch (n=0 disables).
func (p *Plan) CtrlDrop(at time.Duration, dpid uint64, n int) *Plan {
	return p.Add(Event{At: at, Kind: CtrlDrop, DPID: dpid, N: n})
}

// CtrlDup schedules duplicating every nth control-channel message of the
// switch (n=0 disables).
func (p *Plan) CtrlDup(at time.Duration, dpid uint64, n int) *Plan {
	return p.Add(Event{At: at, Kind: CtrlDup, DPID: dpid, N: n})
}

// CtrlDropType schedules dropping every nth message of one OpenFlow
// message type on the switch's control channel, leaving other types
// untouched (e.g. shedding packet-ins without perturbing echoes).
func (p *Plan) CtrlDropType(at time.Duration, dpid uint64, n int, t openflow.MsgType) *Plan {
	return p.Add(Event{At: at, Kind: CtrlDrop, DPID: dpid, N: n, MsgType: t})
}

// CtrlDupType schedules duplicating every nth message of one OpenFlow
// message type the same way.
func (p *Plan) CtrlDupType(at time.Duration, dpid uint64, n int, t openflow.MsgType) *Plan {
	return p.Add(Event{At: at, Kind: CtrlDup, DPID: dpid, N: n, MsgType: t})
}

// FloodStart schedules the registered flooder host to begin a
// novel-flow storm at pps packets/second.
func (p *Plan) FloodStart(at time.Duration, hostID int, pps int) *Plan {
	return p.Add(Event{At: at, Kind: FloodStart, HostID: hostID, N: pps})
}

// FloodStop schedules the storm's end.
func (p *Plan) FloodStop(at time.Duration, hostID int) *Plan {
	return p.Add(Event{At: at, Kind: FloodStop, HostID: hostID})
}

// LinkController is the administrative surface the injector drives on a
// link (satisfied by *link.Link).
type LinkController interface {
	SetUp(up bool)
	SetRateScale(f float64)
}

// ElementController is the administrative surface the injector drives on
// a service element (satisfied by *service.Element).
type ElementController interface {
	Crash()
	Restore()
	SetSlowdown(factor float64)
	SetWedged(wedged bool)
}

// Flooder is the administrative surface the injector drives on a host
// that can generate novel-flow storms (satisfied by *host.Host).
type Flooder interface {
	StartFlood(pps int)
	StopFlood()
}

// Applied is one executed fault, stamped with its execution time.
type Applied struct {
	At time.Duration
	Event
}

// Injector executes fault plans against registered targets.
type Injector struct {
	eng      *sim.Engine
	channels map[uint64]*Channel
	links    map[int]LinkController
	elements map[uint64]ElementController
	flooders map[int]Flooder

	applied []Applied // execution order
}

// NewInjector creates an injector bound to the simulation engine.
func NewInjector(eng *sim.Engine) *Injector {
	return &Injector{
		eng:      eng,
		channels: make(map[uint64]*Channel),
		links:    make(map[int]LinkController),
		elements: make(map[uint64]ElementController),
		flooders: make(map[int]Flooder),
	}
}

// RegisterLink registers a link target under an id of the caller's
// choosing. Re-registering an id replaces the target (e.g. after a host
// migrates to a fresh access link).
func (in *Injector) RegisterLink(id int, l LinkController) { in.links[id] = l }

// RegisterElement registers a service-element target under its SE id.
func (in *Injector) RegisterElement(id uint64, el ElementController) { in.elements[id] = el }

// RegisterFlooder registers a storm-capable host under an id of the
// caller's choosing.
func (in *Injector) RegisterFlooder(id int, f Flooder) { in.flooders[id] = f }

// Channel returns the fault channel registered for dpid (nil if none).
func (in *Injector) Channel(dpid uint64) *Channel { return in.channels[dpid] }

// Applied returns a copy of the faults executed so far, in execution
// order.
func (in *Injector) Applied() []Applied {
	return append([]Applied(nil), in.applied...)
}

// Schedule queues every event of the plan on the simulation clock. An
// empty (or nil) plan schedules nothing. Events sharing a timestamp fire
// in plan order.
func (in *Injector) Schedule(p *Plan) {
	if p.Empty() {
		return
	}
	events := p.Events()
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	for _, ev := range events {
		ev := ev
		in.eng.At(ev.At, func() { in.Apply(ev) })
	}
}

// Apply executes one fault immediately. Unregistered targets are ignored
// (the fault is still logged), so plans can be written against
// topologies that only partially exist.
func (in *Injector) Apply(ev Event) {
	in.applied = append(in.applied, Applied{At: in.eng.Now(), Event: ev})
	switch ev.Kind {
	case SwitchDisconnect, SwitchReconnect, CtrlDrop, CtrlDup:
		ch := in.channels[ev.DPID]
		if ch == nil {
			return
		}
		switch ev.Kind {
		case SwitchDisconnect:
			ch.SetDown(true)
		case SwitchReconnect:
			ch.SetDown(false)
		case CtrlDrop:
			ch.SetDropEvery(ev.N)
			ch.SetDropType(ev.MsgType)
		case CtrlDup:
			ch.SetDupEvery(ev.N)
			ch.SetDupType(ev.MsgType)
		}
	case LinkDown, LinkUp, LinkDegrade, LinkRestore:
		l := in.links[ev.LinkID]
		if l == nil {
			return
		}
		switch ev.Kind {
		case LinkDown:
			l.SetUp(false)
		case LinkUp:
			l.SetUp(true)
		case LinkDegrade:
			l.SetRateScale(ev.Factor)
		case LinkRestore:
			l.SetRateScale(1)
		}
	case SECrash, SERestart, SESlow, SENormal, SEWedge, SEUnwedge:
		el := in.elements[ev.SEID]
		if el == nil {
			return
		}
		switch ev.Kind {
		case SECrash:
			el.Crash()
		case SERestart:
			el.Restore()
		case SESlow:
			el.SetSlowdown(ev.Factor)
		case SENormal:
			el.SetSlowdown(1)
		case SEWedge:
			el.SetWedged(true)
		case SEUnwedge:
			el.SetWedged(false)
		}
	case FloodStart, FloodStop:
		f := in.flooders[ev.HostID]
		if f == nil {
			return
		}
		if ev.Kind == FloodStart {
			f.StartFlood(ev.N)
		} else {
			f.StopFlood()
		}
	}
}
