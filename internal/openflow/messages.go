// Package openflow implements the OpenFlow 1.0 subset LiveSec uses: the
// secure-channel handshake, packet-in/packet-out, flow-mod with wildcard
// matches, flow-removed, port status, and flow/port statistics.
//
// Messages have a real binary wire format (Encode/Decode, plus stream
// framing in transport.go) so the same controller logic drives both the
// discrete-event simulator and real TCP connections (cmd/livesecd).
package openflow

import (
	"fmt"

	"livesec/internal/flow"
	"livesec/internal/netpkt"
)

// Version is the protocol version byte carried in every header.
const Version = 0x01

// MsgType identifies an OpenFlow message.
type MsgType uint8

// Message types (OpenFlow 1.0 numbering for the subset we implement).
const (
	TypeHello           MsgType = 0
	TypeError           MsgType = 1
	TypeEchoRequest     MsgType = 2
	TypeEchoReply       MsgType = 3
	TypeFeaturesRequest MsgType = 5
	TypeFeaturesReply   MsgType = 6
	TypePacketIn        MsgType = 10
	TypeFlowRemoved     MsgType = 11
	TypePortStatus      MsgType = 12
	TypePacketOut       MsgType = 13
	TypeFlowMod         MsgType = 14
	TypeStatsRequest    MsgType = 16
	TypeStatsReply      MsgType = 17
	TypeBarrierRequest  MsgType = 18
	TypeBarrierReply    MsgType = 19
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case TypeHello:
		return "HELLO"
	case TypeError:
		return "ERROR"
	case TypeEchoRequest:
		return "ECHO_REQUEST"
	case TypeEchoReply:
		return "ECHO_REPLY"
	case TypeFeaturesRequest:
		return "FEATURES_REQUEST"
	case TypeFeaturesReply:
		return "FEATURES_REPLY"
	case TypePacketIn:
		return "PACKET_IN"
	case TypeFlowRemoved:
		return "FLOW_REMOVED"
	case TypePortStatus:
		return "PORT_STATUS"
	case TypePacketOut:
		return "PACKET_OUT"
	case TypeFlowMod:
		return "FLOW_MOD"
	case TypeStatsRequest:
		return "STATS_REQUEST"
	case TypeStatsReply:
		return "STATS_REPLY"
	case TypeBarrierRequest:
		return "BARRIER_REQUEST"
	case TypeBarrierReply:
		return "BARRIER_REPLY"
	default:
		return fmt.Sprintf("MSG(%d)", uint8(t))
	}
}

// Special output port numbers.
const (
	PortFlood      uint32 = 0xfffb // all ports except ingress
	PortAll        uint32 = 0xfffc
	PortController uint32 = 0xfffd
	PortNone       uint32 = 0xffff
)

// FlowMod commands.
const (
	FlowAdd          uint8 = 0
	FlowModify       uint8 = 1
	FlowDelete       uint8 = 3
	FlowDeleteStrict uint8 = 4
)

// PacketIn reasons.
const (
	ReasonNoMatch uint8 = 0
	ReasonAction  uint8 = 1
)

// FlowRemoved reasons.
const (
	RemovedIdleTimeout uint8 = 0
	RemovedHardTimeout uint8 = 1
	RemovedDelete      uint8 = 2
)

// PortStatus reasons.
const (
	PortAdded    uint8 = 0
	PortDeleted  uint8 = 1
	PortModified uint8 = 2
)

// Message is any OpenFlow message. XID correlates requests and replies.
type Message interface {
	Type() MsgType
	xid() uint32
}

// Hello opens the secure channel.
type Hello struct{ XID uint32 }

// EchoRequest is a liveness probe.
type EchoRequest struct {
	XID  uint32
	Data []byte
}

// EchoReply answers an EchoRequest with the same data.
type EchoReply struct {
	XID  uint32
	Data []byte
}

// FeaturesRequest asks the switch for its datapath description.
type FeaturesRequest struct{ XID uint32 }

// PortDesc describes one switch port.
type PortDesc struct {
	No   uint32
	MAC  netpkt.MAC
	Name string // at most 16 bytes on the wire
}

// FeaturesReply announces the datapath ID and ports.
type FeaturesReply struct {
	XID     uint32
	DPID    uint64
	NTables uint8
	Ports   []PortDesc
}

// PacketIn delivers a packet (or its head) to the controller.
type PacketIn struct {
	XID      uint32
	BufferID uint32 // 0xffffffff if the full packet is included
	InPort   uint32
	Reason   uint8
	Data     []byte // marshaled frame
}

// NoBuffer is the BufferID meaning the whole packet is in Data.
const NoBuffer uint32 = 0xffffffff

// PacketOut tells the switch to emit a packet through an action list.
type PacketOut struct {
	XID      uint32
	BufferID uint32
	InPort   uint32
	Actions  []Action
	Data     []byte
}

// FlowMod installs, modifies, or removes flow entries.
type FlowMod struct {
	XID         uint32
	Match       flow.Match
	Cookie      uint64
	Command     uint8
	IdleTimeout uint16 // seconds, 0 = never
	HardTimeout uint16 // seconds, 0 = never
	Priority    uint16
	NotifyDel   bool // OFPFF_SEND_FLOW_REM
	Actions     []Action
}

// FlowRemoved notifies the controller that an entry expired or was
// deleted.
type FlowRemoved struct {
	XID      uint32
	Match    flow.Match
	Cookie   uint64
	Priority uint16
	Reason   uint8
	Packets  uint64
	Bytes    uint64
}

// PortStatus notifies the controller of a port change.
type PortStatus struct {
	XID    uint32
	Reason uint8
	Desc   PortDesc
}

// StatsKind selects the statistics body type.
type StatsKind uint16

// Statistics kinds.
const (
	StatsFlow  StatsKind = 1
	StatsTable StatsKind = 3
	StatsPort  StatsKind = 4
)

// StatsRequest asks for flow, table, or port statistics.
type StatsRequest struct {
	XID   uint32
	Kind  StatsKind
	Match flow.Match // for StatsFlow
}

// FlowStat is one flow-table entry's counters.
type FlowStat struct {
	Match    flow.Match
	Priority uint16
	Cookie   uint64
	Packets  uint64
	Bytes    uint64
}

// TableStat is one flow table's counters (OFPST_TABLE), extended with
// the switch's microflow-cache counters (OpenFlow 1.0 has no notion of
// a microflow cache; the extra fields extend the fixed-layout body the
// way a vendor extension would).
type TableStat struct {
	TableID      uint8
	ActiveCount  uint32
	LookupCount  uint64
	MatchedCount uint64

	// Microflow cache effectiveness (hits/misses/invalidations).
	MicroHits          uint64
	MicroMisses        uint64
	MicroInvalidations uint64
}

// PortStat is one port's counters.
type PortStat struct {
	PortNo    uint32
	RxPackets uint64
	TxPackets uint64
	RxBytes   uint64
	TxBytes   uint64
	RxDropped uint64
	TxDropped uint64
}

// StatsReply carries the requested statistics.
type StatsReply struct {
	XID    uint32
	Kind   StatsKind
	Flows  []FlowStat
	Tables []TableStat
	Ports  []PortStat
}

// BarrierRequest asks the switch to finish all preceding messages.
type BarrierRequest struct{ XID uint32 }

// BarrierReply acknowledges a BarrierRequest.
type BarrierReply struct{ XID uint32 }

// ErrorMsg reports a protocol error.
type ErrorMsg struct {
	XID  uint32
	Code uint16
	Data []byte
}

// Error codes.
const (
	ErrBadRequest uint16 = 1
	ErrBadAction  uint16 = 2
	ErrBadMatch   uint16 = 4
	ErrTableFull  uint16 = 5
)

// Type/xid implementations.

func (m *Hello) Type() MsgType           { return TypeHello }
func (m *Hello) xid() uint32             { return m.XID }
func (m *EchoRequest) Type() MsgType     { return TypeEchoRequest }
func (m *EchoRequest) xid() uint32       { return m.XID }
func (m *EchoReply) Type() MsgType       { return TypeEchoReply }
func (m *EchoReply) xid() uint32         { return m.XID }
func (m *FeaturesRequest) Type() MsgType { return TypeFeaturesRequest }
func (m *FeaturesRequest) xid() uint32   { return m.XID }
func (m *FeaturesReply) Type() MsgType   { return TypeFeaturesReply }
func (m *FeaturesReply) xid() uint32     { return m.XID }
func (m *PacketIn) Type() MsgType        { return TypePacketIn }
func (m *PacketIn) xid() uint32          { return m.XID }
func (m *PacketOut) Type() MsgType       { return TypePacketOut }
func (m *PacketOut) xid() uint32         { return m.XID }
func (m *FlowMod) Type() MsgType         { return TypeFlowMod }
func (m *FlowMod) xid() uint32           { return m.XID }
func (m *FlowRemoved) Type() MsgType     { return TypeFlowRemoved }
func (m *FlowRemoved) xid() uint32       { return m.XID }
func (m *PortStatus) Type() MsgType      { return TypePortStatus }
func (m *PortStatus) xid() uint32        { return m.XID }
func (m *StatsRequest) Type() MsgType    { return TypeStatsRequest }
func (m *StatsRequest) xid() uint32      { return m.XID }
func (m *StatsReply) Type() MsgType      { return TypeStatsReply }
func (m *StatsReply) xid() uint32        { return m.XID }
func (m *BarrierRequest) Type() MsgType  { return TypeBarrierRequest }
func (m *BarrierRequest) xid() uint32    { return m.XID }
func (m *BarrierReply) Type() MsgType    { return TypeBarrierReply }
func (m *BarrierReply) xid() uint32      { return m.XID }
func (m *ErrorMsg) Type() MsgType        { return TypeError }
func (m *ErrorMsg) xid() uint32          { return m.XID }

// Action is one element of a flow entry's or packet-out's action list.
// An empty action list means drop.
type Action interface {
	actionType() uint16
}

// Action type codes (OpenFlow 1.0 numbering).
const (
	actOutput   uint16 = 0
	actSetDLSrc uint16 = 4
	actSetDLDst uint16 = 5
)

// ActionOutput forwards the packet to a port (possibly a special port).
type ActionOutput struct {
	Port   uint32
	MaxLen uint16 // bytes of the packet to send to the controller
}

func (ActionOutput) actionType() uint16 { return actOutput }

// ActionSetDLSrc rewrites the Ethernet source address.
type ActionSetDLSrc struct{ MAC netpkt.MAC }

func (ActionSetDLSrc) actionType() uint16 { return actSetDLSrc }

// ActionSetDLDst rewrites the Ethernet destination address. LiveSec's
// interactive policy enforcement uses this to steer flows to off-path
// service elements (§IV.A).
type ActionSetDLDst struct{ MAC netpkt.MAC }

func (ActionSetDLDst) actionType() uint16 { return actSetDLDst }

// Output is shorthand for a single-output action list.
func Output(port uint32) []Action { return []Action{OutputAction(port)} }

// OutputAction returns ActionOutput{Port: port} as an Action. Converting
// a non-pointer value to an interface allocates, and each end of the
// channel converts one output per flow entry of every setup; the ports
// below len(outputs) are converted once, at start-up.
func OutputAction(port uint32) Action {
	if port < uint32(len(outputs)) {
		return outputs[port]
	}
	return ActionOutput{Port: port}
}

// outputs holds the boxed output actions OutputAction hands out; it is
// only read after init, so concurrent decoders share it.
var outputs = func() (t [1024]Action) {
	for i := range t {
		t[i] = ActionOutput{Port: uint32(i)}
	}
	return t
}()

// Drop is the empty action list.
func Drop() []Action { return nil }
