// Connection-state handoff messages. A stateful service element (the
// firewall, internal/firewall) tracks per-session connection state that
// must survive re-steers: when a drain, breaker trip, or re-balance
// moves a live session to another element, the successor has never
// seen the handshake and a strict stateless decision is wrong in both
// directions. Three message kinds make the state a first-class
// migratable object:
//
//	STATE_SYNC     element → controller: the element serializes every
//	               connection-state transition it makes, so the
//	               controller holds an authoritative mirror that
//	               survives even an element crash.
//	STATE_INSTALL  controller → element: on re-steer the controller
//	               transfers the session's mirrored state to the
//	               successor, ahead of the first re-steered packet.
//	STATE_ACK      element → controller: the successor confirms the
//	               install, closing the handoff; a missing ack past the
//	               bounded handoff timeout falls back to
//	               drop-and-relearn.
package seproto

import (
	"encoding/binary"
	"errors"
	"fmt"

	"livesec/internal/flow"
	"livesec/internal/netpkt"
)

// State-handoff message kinds (KindOnline and KindEvent are 1 and 2).
const (
	KindStateSync    Kind = 3
	KindStateInstall Kind = 4
	KindStateAck     Kind = 5
)

// ConnState is one position in the connection-tracking state machine:
// the TCP track NEW → SYN_SENT → SYN_RECV → ESTABLISHED → FIN_WAIT →
// CLOSED, with UDP/ICMP riding a coarse NEW → ESTABLISHED sub-track.
type ConnState uint8

// Connection states.
const (
	StateNew ConnState = iota + 1
	StateSynSent
	StateSynRecv
	StateEstablished
	StateFinWait
	StateClosed
)

// String names the connection state.
func (s ConnState) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateSynSent:
		return "syn-sent"
	case StateSynRecv:
		return "syn-recv"
	case StateEstablished:
		return "established"
	case StateFinWait:
		return "fin-wait"
	case StateClosed:
		return "closed"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// ConnStates lists every valid state in order (gauges and tests iterate
// it so labels stay deterministic).
var ConnStates = []ConnState{StateNew, StateSynSent, StateSynRecv,
	StateEstablished, StateFinWait, StateClosed}

// SessionKey identifies one tracked connection independently of
// direction, attachment point, and steering rewrites: the IP 5-tuple
// with its two endpoints in canonical (lexicographic) order. MACs,
// ports-of-entry and VLAN/TOS are deliberately excluded so the state
// follows a session across host mobility and element migration.
type SessionKey struct {
	Proto          netpkt.IPProto
	LoIP, HiIP     netpkt.IPv4Addr
	LoPort, HiPort uint16
}

// Less orders session keys; exports sort on it so every serialization
// of a state table is deterministic.
func (k SessionKey) Less(o SessionKey) bool {
	if k.Proto != o.Proto {
		return k.Proto < o.Proto
	}
	if c := compareEndpoint(k.LoIP, k.LoPort, o.LoIP, o.LoPort); c != 0 {
		return c < 0
	}
	return compareEndpoint(k.HiIP, k.HiPort, o.HiIP, o.HiPort) < 0
}

// String renders the key compactly.
func (k SessionKey) String() string {
	return fmt.Sprintf("%s:%d<->%s:%d proto=%d",
		k.LoIP, k.LoPort, k.HiIP, k.HiPort, k.Proto)
}

func compareEndpoint(aIP netpkt.IPv4Addr, aPort uint16, bIP netpkt.IPv4Addr, bPort uint16) int {
	for i := range aIP {
		if aIP[i] != bIP[i] {
			if aIP[i] < bIP[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case aPort < bPort:
		return -1
	case aPort > bPort:
		return 1
	}
	return 0
}

// SessionKeyOf canonicalizes a flow key. srcIsLo reports whether the
// flow's (IPSrc, SrcPort) endpoint is the canonical Lo side — the
// direction bit every state lookup needs. ok is false for non-IP flows,
// which carry no connection state.
func SessionKeyOf(k flow.Key) (sk SessionKey, srcIsLo bool, ok bool) {
	if k.EthType != netpkt.EtherTypeIPv4 {
		return SessionKey{}, false, false
	}
	sk.Proto = k.IPProto
	if compareEndpoint(k.IPSrc, k.SrcPort, k.IPDst, k.DstPort) <= 0 {
		sk.LoIP, sk.LoPort = k.IPSrc, k.SrcPort
		sk.HiIP, sk.HiPort = k.IPDst, k.DstPort
		return sk, true, true
	}
	sk.LoIP, sk.LoPort = k.IPDst, k.DstPort
	sk.HiIP, sk.HiPort = k.IPSrc, k.SrcPort
	return sk, false, true
}

// SessionState is the migratable per-session verdict state: everything
// a successor element needs to continue enforcing a connection it never
// saw the handshake of.
type SessionState struct {
	Key   SessionKey
	State ConnState
	// OrigLo records which canonical endpoint initiated the connection,
	// so direction-sensitive checks survive the canonical reordering.
	OrigLo bool
	// SeqLo and SeqHi are the most recent TCP sequence numbers seen from
	// the Lo and Hi endpoints; out-of-window rejection compares against
	// them.
	SeqLo, SeqHi uint32
	// Packets counts packets matched to the session (both directions).
	Packets uint64
}

// StateSync is the element → controller state report: the connection
// states that changed since the previous sync, serialized in canonical
// key order.
type StateSync struct {
	SEID   uint64
	Cert   Cert
	States []SessionState
}

// StateInstall is the controller → element handoff transfer. FromSE
// names the departing holder (0 when unknown); HandoffID correlates the
// ack.
type StateInstall struct {
	HandoffID uint64
	FromSE    uint64
	States    []SessionState
}

// StateAck is the element → controller handoff confirmation.
type StateAck struct {
	SEID      uint64
	Cert      Cert
	HandoffID uint64
	Installed uint16
}

// Errors specific to the state-handoff codec.
var (
	// ErrBadVersion reports a LiveSec datagram whose version byte is not
	// this build's: a version-skewed element. Surfaced as a typed error
	// so the controller can raise a monitor event instead of silently
	// skipping the message.
	ErrBadVersion = errors.New("seproto: unsupported protocol version")
	// ErrBadState reports a state-handoff body with an invalid
	// connection state or flag encoding.
	ErrBadState = errors.New("seproto: invalid session state encoding")
)

// sessionStateLen is the wire length of one SessionState.
const sessionStateLen = 1 + 4 + 4 + 2 + 2 + 1 + 1 + 4 + 4 + 8

func appendSessionState(b []byte, s *SessionState) []byte {
	b = append(b, byte(s.Key.Proto))
	b = append(b, s.Key.LoIP[:]...)
	b = append(b, s.Key.HiIP[:]...)
	b = binary.BigEndian.AppendUint16(b, s.Key.LoPort)
	b = binary.BigEndian.AppendUint16(b, s.Key.HiPort)
	b = append(b, byte(s.State))
	var fl byte
	if s.OrigLo {
		fl = 1
	}
	b = append(b, fl)
	b = binary.BigEndian.AppendUint32(b, s.SeqLo)
	b = binary.BigEndian.AppendUint32(b, s.SeqHi)
	b = binary.BigEndian.AppendUint64(b, s.Packets)
	return b
}

func decodeSessionState(b []byte) (SessionState, error) {
	var s SessionState
	if len(b) < sessionStateLen {
		return s, ErrTruncated
	}
	s.Key.Proto = netpkt.IPProto(b[0])
	copy(s.Key.LoIP[:], b[1:5])
	copy(s.Key.HiIP[:], b[5:9])
	s.Key.LoPort = binary.BigEndian.Uint16(b[9:11])
	s.Key.HiPort = binary.BigEndian.Uint16(b[11:13])
	s.State = ConnState(b[13])
	if s.State < StateNew || s.State > StateClosed {
		return s, ErrBadState
	}
	if b[14] > 1 {
		return s, ErrBadState
	}
	s.OrigLo = b[14] == 1
	s.SeqLo = binary.BigEndian.Uint32(b[15:19])
	s.SeqHi = binary.BigEndian.Uint32(b[19:23])
	s.Packets = binary.BigEndian.Uint64(b[23:31])
	return s, nil
}

func appendStateList(b []byte, states []SessionState) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(states)))
	for i := range states {
		b = appendSessionState(b, &states[i])
	}
	return b
}

func decodeStateList(b []byte) ([]SessionState, error) {
	if len(b) < 2 {
		return nil, ErrTruncated
	}
	count := int(binary.BigEndian.Uint16(b[0:2]))
	b = b[2:]
	if len(b) != count*sessionStateLen {
		return nil, ErrTruncated
	}
	if count == 0 {
		return nil, nil
	}
	out := make([]SessionState, count)
	for i := 0; i < count; i++ {
		s, err := decodeSessionState(b[i*sessionStateLen:])
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// MarshalStateSync encodes a STATE_SYNC message into a UDP payload.
func MarshalStateSync(m *StateSync) []byte {
	b := make([]byte, 0, 6+8+CertLen+2+len(m.States)*sessionStateLen)
	b = append(b, Magic[:]...)
	b = append(b, Version, byte(KindStateSync))
	b = binary.BigEndian.AppendUint64(b, m.SEID)
	b = append(b, m.Cert[:]...)
	return appendStateList(b, m.States)
}

// MarshalStateInstall encodes a STATE_INSTALL message into a UDP payload.
func MarshalStateInstall(m *StateInstall) []byte {
	b := make([]byte, 0, 6+8+8+2+len(m.States)*sessionStateLen)
	b = append(b, Magic[:]...)
	b = append(b, Version, byte(KindStateInstall))
	b = binary.BigEndian.AppendUint64(b, m.HandoffID)
	b = binary.BigEndian.AppendUint64(b, m.FromSE)
	return appendStateList(b, m.States)
}

// MarshalStateAck encodes a STATE_ACK message into a UDP payload.
func MarshalStateAck(m *StateAck) []byte {
	b := make([]byte, 0, 6+8+CertLen+8+2)
	b = append(b, Magic[:]...)
	b = append(b, Version, byte(KindStateAck))
	b = binary.BigEndian.AppendUint64(b, m.SEID)
	b = append(b, m.Cert[:]...)
	b = binary.BigEndian.AppendUint64(b, m.HandoffID)
	return binary.BigEndian.AppendUint16(b, m.Installed)
}

func parseStateSync(body []byte) (*StateSync, error) {
	if len(body) < 8+CertLen {
		return nil, ErrTruncated
	}
	m := &StateSync{SEID: binary.BigEndian.Uint64(body[0:8])}
	copy(m.Cert[:], body[8:8+CertLen])
	states, err := decodeStateList(body[8+CertLen:])
	if err != nil {
		return nil, err
	}
	m.States = states
	return m, nil
}

func parseStateInstall(body []byte) (*StateInstall, error) {
	if len(body) < 16 {
		return nil, ErrTruncated
	}
	m := &StateInstall{
		HandoffID: binary.BigEndian.Uint64(body[0:8]),
		FromSE:    binary.BigEndian.Uint64(body[8:16]),
	}
	states, err := decodeStateList(body[16:])
	if err != nil {
		return nil, err
	}
	m.States = states
	return m, nil
}

func parseStateAck(body []byte) (*StateAck, error) {
	if len(body) != 8+CertLen+8+2 {
		return nil, ErrTruncated
	}
	m := &StateAck{SEID: binary.BigEndian.Uint64(body[0:8])}
	copy(m.Cert[:], body[8:8+CertLen])
	m.HandoffID = binary.BigEndian.Uint64(body[8+CertLen : 8+CertLen+8])
	m.Installed = binary.BigEndian.Uint16(body[8+CertLen+8:])
	return m, nil
}
