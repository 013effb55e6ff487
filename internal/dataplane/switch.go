package dataplane

import (
	"fmt"
	"slices"
	"time"

	"livesec/internal/flow"
	"livesec/internal/link"
	"livesec/internal/netpkt"
	"livesec/internal/openflow"
	"livesec/internal/sim"
)

// Kind distinguishes the two AS-layer devices the paper deploys.
type Kind int

// Switch kinds.
const (
	// KindOvS is an Open vSwitch instance on a commodity server.
	KindOvS Kind = iota + 1
	// KindWiFi is a Pantou (OpenWrt) OF Wi-Fi access point.
	KindWiFi
)

// Forwarding delays of the software data planes. These set the per-hop
// cost LiveSec adds over pure legacy switching (evaluation §V.B.3).
const (
	ovsProcDelay  = 20 * time.Microsecond
	wifiProcDelay = 80 * time.Microsecond

	expirySweep = 250 * time.Millisecond
	// Packet-ins are buffered in a ring of bufferCap slots, each reused once
	// released or bufferAge old (Open vSwitch's overwrite age).
	bufferCap = 1024
	bufferAge = 5 * time.Second
)

// Config configures a Switch.
type Config struct {
	DPID uint64
	Name string
	Kind Kind
	// MaxEntries bounds the flow table (0 = unlimited). Hardware tables
	// are finite; a full table rejects a FLOW_MOD add that would grow it.
	MaxEntries int
}

// PortStats counts per-port traffic.
type PortStats struct {
	RxPackets, TxPackets uint64
	RxBytes, TxBytes     uint64
	RxDropped, TxDropped uint64
}

type swPort struct {
	no    uint32
	ep    link.Endpoint
	stats PortStats
}

// Switch is a software OpenFlow switch attached to the simulator.
// It implements link.Node for the data plane and talks to the controller
// over an openflow.Conn secure channel.
type Switch struct {
	eng   *sim.Engine
	cfg   Config
	proc  time.Duration
	table *FlowTable
	micro *microflowCache
	ports map[uint32]*swPort
	ctrl  openflow.Conn
	mac   netpkt.MAC

	// forwarding holds the frames inside the software forwarding delay:
	// each leaves at now + proc, and now only moves forward, so they leave
	// in arrival order — what sim.Pipe requires.
	forwarding *sim.Pipe[bufferedPacket]

	// portOrder caches sortedPorts(); AttachPort invalidates it, so a
	// flooded packet costs one cached-slice walk instead of a fresh
	// allocation and sort per packet.
	portOrder []uint32

	buffers  []packetBuffer // the ring, grown to bufferCap on its first lap
	nextBuf  uint32         // the last buffer ID handed out
	nextXID  uint32
	stopScan func()

	// packetIn is every packet-in this switch sends, its frame encoded
	// into the same buffer each time: the channel keeps neither past Send.
	packetIn openflow.PacketIn

	// PacketInsSent counts controller round trips; the flow-setup ablation
	// bench reads it.
	PacketInsSent uint64
	// Lookups counts pipeline flow-table consultations (hit or miss).
	Lookups uint64
	// TableMisses counts lookups that found no entry.
	TableMisses uint64
	// TableFullRejects counts FLOW_MOD adds refused on a full table.
	TableFullRejects uint64
}

type bufferedPacket struct {
	pkt    *netpkt.Packet
	inPort uint32
}

// packetBuffer is a ring slot: the packet buffered under ID id at at.
type packetBuffer struct {
	pkt        *netpkt.Packet
	inPort, id uint32
	at         time.Duration
}

// New creates a switch on the engine. Attach ports with AttachPort, then
// connect the secure channel with ConnectController.
func New(eng *sim.Engine, cfg Config) *Switch {
	proc := ovsProcDelay
	if cfg.Kind == KindWiFi {
		proc = wifiProcDelay
	}
	s := &Switch{
		eng:   eng,
		cfg:   cfg,
		proc:  proc,
		table: NewFlowTable(),
		micro: newMicroflowCache(),
		ports: make(map[uint32]*swPort),
		mac:   netpkt.MACFromUint64(cfg.DPID | 1<<40),
	}
	s.forwarding = sim.NewPipe(eng, s.pipeline)
	return s
}

// DPID returns the datapath ID.
func (s *Switch) DPID() uint64 { return s.cfg.DPID }

// Name returns the configured name.
func (s *Switch) Name() string { return s.cfg.Name }

// Kind returns the device kind.
func (s *Switch) Kind() Kind { return s.cfg.Kind }

// Table exposes the flow table for tests and stats collection.
func (s *Switch) Table() *FlowTable { return s.table }

// MicroflowStats returns the microflow cache's hit/miss/invalidation
// counters.
func (s *Switch) MicroflowStats() MicroflowStats { return s.micro.stats }

// AttachPort registers local port no as the switch end of l. The link must
// have been built with this switch as one of its nodes. Ports attached
// after the controller handshake are announced with a PORT_STATUS
// message, as on a real datapath.
func (s *Switch) AttachPort(no uint32, l *link.Link) {
	_, existed := s.ports[no]
	s.ports[no] = &swPort{no: no, ep: l.From(s)}
	s.portOrder = nil // port set changed; rebuild the flood order lazily
	if s.ctrl != nil && !existed {
		s.ctrl.Send(&openflow.PortStatus{
			XID:    s.xid(),
			Reason: openflow.PortAdded,
			Desc:   openflow.PortDesc{No: no, MAC: s.mac, Name: fmt.Sprintf("%s-p%d", s.cfg.Name, no)},
		})
	}
}

// Ports lists attached port numbers in ascending order.
func (s *Switch) Ports() []uint32 { return slices.Clone(s.sortedPorts()) }

// sortedPorts lists port numbers ascending (deterministic flooding and
// port stats). The slice is cached across packets and rebuilt only after
// a port change; callers must not modify or retain it.
func (s *Switch) sortedPorts() []uint32 {
	if s.portOrder == nil && len(s.ports) > 0 {
		for no := range s.ports {
			s.portOrder = append(s.portOrder, no)
		}
		slices.Sort(s.portOrder)
	}
	return s.portOrder
}

// PortStats returns counters for one port.
func (s *Switch) PortStats(no uint32) PortStats {
	if p, ok := s.ports[no]; ok {
		return p.stats
	}
	return PortStats{}
}

// ConnectController wires the secure channel and performs the OpenFlow
// handshake (Hello + FeaturesReply on request). It also starts the flow
// expiry sweeper.
func (s *Switch) ConnectController(c openflow.Conn) {
	s.ctrl = c
	c.SetHandler(s.handleControl)
	c.Send(&openflow.Hello{XID: s.xid()})
	if s.stopScan == nil {
		s.stopScan = s.eng.Ticker(expirySweep, s.sweepExpired)
	}
}

// Shutdown stops background activity (the expiry sweeper).
func (s *Switch) Shutdown() {
	if s.stopScan != nil {
		s.stopScan()
		s.stopScan = nil
	}
}

func (s *Switch) xid() uint32 {
	s.nextXID++
	return s.nextXID
}

// Receive implements link.Node: a frame arrived on a data port.
func (s *Switch) Receive(portNo uint32, pkt *netpkt.Packet) {
	p, ok := s.ports[portNo]
	if !ok {
		return
	}
	p.stats.RxPackets++
	p.stats.RxBytes += uint64(pkt.WireLen())
	// Model the software forwarding delay, then run the pipeline.
	s.forwarding.At(s.eng.Now()+s.proc, bufferedPacket{pkt, portNo})
}

func (s *Switch) pipeline(in bufferedPacket) {
	inPort, pkt := in.inPort, in.pkt
	key := flow.KeyOf(inPort, pkt)
	s.Lookups++
	r := s.micro.lookup(s.table, key)
	if r == noRef {
		s.TableMisses++
		s.sendPacketIn(inPort, pkt, openflow.ReasonNoMatch)
		return
	}
	s.apply(inPort, pkt, s.table.hit(r, uint64(pkt.WireLen()), s.eng.Now()))
}

// apply executes an action list on a packet. The only rewrites are of
// Ethernet addresses, so a rewriting action works on a copy of the frame
// (netpkt.Packet.CopyFrame: headers and payload stay shared, nobody
// writes them after a send) and other references stay intact.
// Consecutive rewrites share one copy: a fresh one is only taken when
// the current packet is still shared — the caller's original, or a copy
// that has already been emitted through an output action.
func (s *Switch) apply(inPort uint32, pkt *netpkt.Packet, actions []openflow.Action) {
	if len(actions) == 0 {
		return // drop
	}
	cur := pkt
	owned := false // whether cur is ours alone to mutate
	for _, a := range actions {
		switch act := a.(type) {
		case openflow.ActionSetDLDst:
			if !owned {
				cur = cur.CopyFrame()
				owned = true
			}
			cur.EthDst = act.MAC
		case openflow.ActionSetDLSrc:
			if !owned {
				cur = cur.CopyFrame()
				owned = true
			}
			cur.EthSrc = act.MAC
		case openflow.ActionOutput:
			s.output(inPort, cur, act)
			owned = false // receivers hold references now
		}
	}
}

func (s *Switch) output(inPort uint32, pkt *netpkt.Packet, act openflow.ActionOutput) {
	switch act.Port {
	case openflow.PortController:
		s.sendPacketIn(inPort, pkt, openflow.ReasonAction)
	case openflow.PortFlood:
		for _, no := range s.sortedPorts() {
			if no != inPort {
				s.tx(s.ports[no], pkt)
			}
		}
	case openflow.PortAll:
		for _, no := range s.sortedPorts() {
			s.tx(s.ports[no], pkt)
		}
	default:
		p, ok := s.ports[act.Port]
		if !ok {
			return
		}
		s.tx(p, pkt)
	}
}

func (s *Switch) tx(p *swPort, pkt *netpkt.Packet) {
	p.stats.TxPackets++
	p.stats.TxBytes += uint64(pkt.WireLen())
	p.ep.Send(pkt)
}

func (s *Switch) sendPacketIn(inPort uint32, pkt *netpkt.Packet, reason uint8) {
	if s.ctrl == nil {
		return
	}
	s.PacketInsSent++
	pi := &s.packetIn
	*pi = openflow.PacketIn{
		XID:      s.xid(),
		BufferID: s.buffer(inPort, pkt),
		InPort:   inPort,
		Reason:   reason,
		Data:     pkt.MarshalAppend(pi.Data[:0]),
	}
	s.ctrl.Send(pi)
}

// buffer keeps pkt under the next buffer ID, in the ring slot that ID
// falls on, and returns the ID; or NoBuffer if that slot still holds a
// packet younger than bufferAge.
func (s *Switch) buffer(inPort uint32, pkt *netpkt.Packet) uint32 {
	s.nextBuf++
	i := int((s.nextBuf - 1) % bufferCap)
	if i == len(s.buffers) {
		s.buffers = append(s.buffers, packetBuffer{})
	}
	b, now := &s.buffers[i], s.eng.Now()
	if s.nextBuf == openflow.NoBuffer || b.pkt != nil && now-b.at < bufferAge {
		return openflow.NoBuffer
	}
	*b = packetBuffer{pkt, inPort, s.nextBuf, now}
	return s.nextBuf
}

func (s *Switch) handleControl(m openflow.Message) {
	switch msg := m.(type) {
	case *openflow.Hello:
		// Handshake complete; nothing else required.
	case *openflow.EchoRequest:
		s.ctrl.Send(&openflow.EchoReply{XID: msg.XID, Data: msg.Data})
	case *openflow.FeaturesRequest:
		s.ctrl.Send(s.featuresReply(msg.XID))
	case *openflow.FlowMod:
		s.handleFlowMod(msg)
	case *openflow.PacketOut:
		s.handlePacketOut(msg)
	case *openflow.StatsRequest:
		s.handleStatsRequest(msg)
	case *openflow.BarrierRequest:
		s.ctrl.Send(&openflow.BarrierReply{XID: msg.XID})
	default:
		s.ctrl.Send(&openflow.ErrorMsg{XID: s.xid(), Code: openflow.ErrBadRequest,
			Data: []byte(fmt.Sprintf("unexpected %s", m.Type()))})
	}
}

func (s *Switch) featuresReply(xid uint32) *openflow.FeaturesReply {
	fr := &openflow.FeaturesReply{XID: xid, DPID: s.cfg.DPID, NTables: 1}
	for _, no := range s.sortedPorts() {
		fr.Ports = append(fr.Ports, openflow.PortDesc{
			No:   no,
			MAC:  s.mac,
			Name: fmt.Sprintf("%s-p%d", s.cfg.Name, no),
		})
	}
	return fr
}

func (s *Switch) handleFlowMod(fm *openflow.FlowMod) {
	switch fm.Command {
	case openflow.FlowAdd, openflow.FlowModify:
		if s.cfg.MaxEntries > 0 && s.table.Len() >= s.cfg.MaxEntries && s.table.grows(fm.Match, fm.Priority) {
			s.TableFullRejects++
			s.ctrl.Send(&openflow.ErrorMsg{XID: fm.XID, Code: openflow.ErrTableFull,
				Data: []byte("flow table full")})
			return
		}
		s.table.Add(Entry{
			Match:       fm.Match,
			Priority:    fm.Priority,
			Actions:     fm.Actions,
			Cookie:      fm.Cookie,
			IdleTimeout: fm.IdleTimeout,
			HardTimeout: fm.HardTimeout,
			NotifyDel:   fm.NotifyDel,
		}, s.eng.Now())
	case openflow.FlowDelete, openflow.FlowDeleteStrict:
		removed := s.table.Delete(fm.Match, fm.Priority, fm.Command == openflow.FlowDeleteStrict)
		for i := range removed {
			if removed[i].NotifyDel {
				s.notifyRemoved(&removed[i], openflow.RemovedDelete)
			}
		}
	}
}

func (s *Switch) handlePacketOut(po *openflow.PacketOut) {
	b := bufferedPacket{inPort: po.InPort}
	if po.BufferID != openflow.NoBuffer { // release it, unless released or overwritten
		i := int((po.BufferID - 1) % bufferCap)
		if i >= len(s.buffers) || s.buffers[i].id != po.BufferID || s.buffers[i].pkt == nil {
			s.ctrl.Send(&openflow.ErrorMsg{XID: po.XID, Code: openflow.ErrBadRequest,
				Data: []byte(fmt.Sprintf("buffer %d unknown or overwritten", po.BufferID))})
			return
		}
		b, s.buffers[i] = bufferedPacket{s.buffers[i].pkt, s.buffers[i].inPort}, packetBuffer{}
	} else {
		decoded, err := netpkt.Unmarshal(po.Data)
		if err != nil {
			s.ctrl.Send(&openflow.ErrorMsg{XID: po.XID, Code: openflow.ErrBadRequest, Data: []byte(err.Error())})
			return
		}
		b.pkt = decoded
	}
	s.apply(b.inPort, b.pkt, po.Actions)
}

func (s *Switch) handleStatsRequest(req *openflow.StatsRequest) {
	reply := &openflow.StatsReply{XID: req.XID, Kind: req.Kind}
	switch req.Kind {
	case openflow.StatsFlow:
		for _, e := range s.table.Entries() {
			if req.Match.Subsumes(e.Match) || req.Match.Wildcards == flow.WildAll {
				reply.Flows = append(reply.Flows, openflow.FlowStat{
					Match: e.Match, Priority: e.Priority, Cookie: e.Cookie,
					Packets: e.Packets, Bytes: e.Bytes,
				})
			}
		}
	case openflow.StatsTable:
		ms := s.MicroflowStats()
		reply.Tables = append(reply.Tables, openflow.TableStat{
			TableID:            0,
			ActiveCount:        uint32(s.table.Len()),
			LookupCount:        s.Lookups,
			MatchedCount:       s.Lookups - s.TableMisses,
			MicroHits:          ms.Hits,
			MicroMisses:        ms.Misses,
			MicroInvalidations: ms.Invalidations,
		})
	case openflow.StatsPort:
		for _, no := range s.sortedPorts() {
			p := s.ports[no]
			reply.Ports = append(reply.Ports, openflow.PortStat{
				PortNo:    no,
				RxPackets: p.stats.RxPackets, TxPackets: p.stats.TxPackets,
				RxBytes: p.stats.RxBytes, TxBytes: p.stats.TxBytes,
				RxDropped: p.stats.RxDropped, TxDropped: p.stats.TxDropped,
			})
		}
	}
	s.ctrl.Send(reply)
}

func (s *Switch) sweepExpired() {
	for _, exp := range s.table.Expire(s.eng.Now()) {
		if exp.Entry.NotifyDel {
			s.notifyRemoved(&exp.Entry, exp.Reason)
		}
	}
}

func (s *Switch) notifyRemoved(e *Entry, reason uint8) {
	if s.ctrl == nil {
		return
	}
	s.ctrl.Send(&openflow.FlowRemoved{
		XID: s.xid(), Match: e.Match, Cookie: e.Cookie, Priority: e.Priority,
		Reason: reason, Packets: e.Packets, Bytes: e.Bytes,
	})
}
