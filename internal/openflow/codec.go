package openflow

import (
	"encoding/binary"
	"errors"
	"fmt"

	"livesec/internal/flow"
	"livesec/internal/netpkt"
)

// Codec errors.
var (
	ErrTruncated  = errors.New("openflow: truncated message")
	ErrBadVersion = errors.New("openflow: unsupported version")
	ErrBadType    = errors.New("openflow: unknown message type")
)

const (
	headerLen    = 8
	matchLen     = 40
	portDescLen  = 28
	flowStatLen  = matchLen + 2 + 8 + 8 + 8 + 6 // match, prio, cookie, pkts, bytes, pad
	portStatLen  = 4 + 6*8 + 4                  // port, six counters, pad
	tableStatLen = 1 + 3 + 4 + 5*8              // id, pad, active, five 64-bit counters
)

// Encode serializes a message to its wire format:
// header{version, type, length, xid} followed by the type-specific body.
func Encode(m Message) []byte {
	return MarshalAppend(make([]byte, 0, headerLen+bodyLen(m)), m)
}

// MarshalAppend appends m's wire encoding to dst and returns the extended
// buffer. It performs no allocation beyond growing dst, so callers on the
// transport hot path can amortize buffers across messages; several
// messages appended to one buffer form a valid OpenFlow stream.
func MarshalAppend(dst []byte, m Message) []byte {
	start := len(dst)
	dst = append(dst, Version, byte(m.Type()), 0, 0) // length patched below
	dst = binary.BigEndian.AppendUint32(dst, m.xid())
	dst = appendBody(dst, m)
	binary.BigEndian.PutUint16(dst[start+2:start+4], uint16(len(dst)-start))
	return dst
}

// bodyLen sizes a message body so Encode can allocate exactly once.
func bodyLen(m Message) int {
	switch v := m.(type) {
	case *EchoRequest:
		return len(v.Data)
	case *EchoReply:
		return len(v.Data)
	case *FeaturesReply:
		return 16 + len(v.Ports)*portDescLen
	case *PacketIn:
		return 12 + len(v.Data)
	case *PacketOut:
		return 12 + actionsWireLen(v.Actions) + len(v.Data)
	case *FlowMod:
		return matchLen + 16 + actionsWireLen(v.Actions)
	case *FlowRemoved:
		return matchLen + 28
	case *PortStatus:
		return 8 + portDescLen
	case *StatsRequest:
		return 4 + matchLen
	case *StatsReply:
		return 4 + len(v.Flows)*flowStatLen + len(v.Tables)*tableStatLen + len(v.Ports)*portStatLen
	case *ErrorMsg:
		return 4 + len(v.Data)
	default:
		return 0
	}
}

func appendBody(b []byte, m Message) []byte {
	switch v := m.(type) {
	case *Hello, *FeaturesRequest, *BarrierRequest, *BarrierReply:
		return b
	case *EchoRequest:
		return append(b, v.Data...)
	case *EchoReply:
		return append(b, v.Data...)
	case *FeaturesReply:
		b = binary.BigEndian.AppendUint64(b, v.DPID)
		b = append(b, v.NTables, 0, 0, 0, 0, 0, 0, 0)
		for _, p := range v.Ports {
			b = appendPortDesc(b, p)
		}
		return b
	case *PacketIn:
		b = binary.BigEndian.AppendUint32(b, v.BufferID)
		b = binary.BigEndian.AppendUint32(b, v.InPort)
		b = append(b, v.Reason, 0, 0, 0)
		return append(b, v.Data...)
	case *PacketOut:
		b = binary.BigEndian.AppendUint32(b, v.BufferID)
		b = binary.BigEndian.AppendUint32(b, v.InPort)
		b = binary.BigEndian.AppendUint16(b, uint16(actionsWireLen(v.Actions)))
		b = append(b, 0, 0)
		b = appendActions(b, v.Actions)
		return append(b, v.Data...)
	case *FlowMod:
		b = appendMatch(b, v.Match)
		b = binary.BigEndian.AppendUint64(b, v.Cookie)
		b = append(b, v.Command)
		var flags uint8
		if v.NotifyDel {
			flags = 1
		}
		b = append(b, flags)
		b = binary.BigEndian.AppendUint16(b, v.IdleTimeout)
		b = binary.BigEndian.AppendUint16(b, v.HardTimeout)
		b = binary.BigEndian.AppendUint16(b, v.Priority)
		return appendActions(b, v.Actions)
	case *FlowRemoved:
		b = appendMatch(b, v.Match)
		b = binary.BigEndian.AppendUint64(b, v.Cookie)
		b = binary.BigEndian.AppendUint16(b, v.Priority)
		b = append(b, v.Reason, 0)
		b = binary.BigEndian.AppendUint64(b, v.Packets)
		b = binary.BigEndian.AppendUint64(b, v.Bytes)
		return b
	case *PortStatus:
		b = append(b, v.Reason, 0, 0, 0, 0, 0, 0, 0)
		return appendPortDesc(b, v.Desc)
	case *StatsRequest:
		b = binary.BigEndian.AppendUint16(b, uint16(v.Kind))
		b = append(b, 0, 0)
		if v.Kind == StatsFlow {
			b = appendMatch(b, v.Match)
		}
		return b
	case *StatsReply:
		b = binary.BigEndian.AppendUint16(b, uint16(v.Kind))
		b = append(b, 0, 0)
		switch v.Kind {
		case StatsFlow:
			for _, fs := range v.Flows {
				b = appendMatch(b, fs.Match)
				b = binary.BigEndian.AppendUint16(b, fs.Priority)
				b = binary.BigEndian.AppendUint64(b, fs.Cookie)
				b = binary.BigEndian.AppendUint64(b, fs.Packets)
				b = binary.BigEndian.AppendUint64(b, fs.Bytes)
				b = append(b, 0, 0, 0, 0, 0, 0)
			}
		case StatsTable:
			for _, ts := range v.Tables {
				b = append(b, ts.TableID, 0, 0, 0)
				b = binary.BigEndian.AppendUint32(b, ts.ActiveCount)
				b = binary.BigEndian.AppendUint64(b, ts.LookupCount)
				b = binary.BigEndian.AppendUint64(b, ts.MatchedCount)
				b = binary.BigEndian.AppendUint64(b, ts.MicroHits)
				b = binary.BigEndian.AppendUint64(b, ts.MicroMisses)
				b = binary.BigEndian.AppendUint64(b, ts.MicroInvalidations)
			}
		case StatsPort:
			for _, ps := range v.Ports {
				b = binary.BigEndian.AppendUint32(b, ps.PortNo)
				b = binary.BigEndian.AppendUint64(b, ps.RxPackets)
				b = binary.BigEndian.AppendUint64(b, ps.TxPackets)
				b = binary.BigEndian.AppendUint64(b, ps.RxBytes)
				b = binary.BigEndian.AppendUint64(b, ps.TxBytes)
				b = binary.BigEndian.AppendUint64(b, ps.RxDropped)
				b = binary.BigEndian.AppendUint64(b, ps.TxDropped)
				b = append(b, 0, 0, 0, 0)
			}
		}
		return b
	case *ErrorMsg:
		b = binary.BigEndian.AppendUint16(b, v.Code)
		b = append(b, 0, 0)
		return append(b, v.Data...)
	default:
		panic(fmt.Sprintf("openflow: cannot encode %T", m))
	}
}

func appendPortDesc(b []byte, p PortDesc) []byte {
	b = binary.BigEndian.AppendUint32(b, p.No)
	b = append(b, p.MAC[:]...)
	n := len(p.Name)
	if n > 16 {
		n = 16
	}
	b = append(b, p.Name[:n]...)
	for ; n < 16; n++ {
		b = append(b, 0)
	}
	return append(b, 0, 0) // pad to portDescLen
}

func appendMatch(b []byte, m flow.Match) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(m.Wildcards))
	b = binary.BigEndian.AppendUint32(b, m.Key.InPort)
	b = append(b, m.Key.EthSrc[:]...)
	b = append(b, m.Key.EthDst[:]...)
	b = binary.BigEndian.AppendUint16(b, m.Key.VLAN)
	b = binary.BigEndian.AppendUint16(b, uint16(m.Key.EthType))
	b = append(b, m.Key.IPSrc[:]...)
	b = append(b, m.Key.IPDst[:]...)
	b = append(b, byte(m.Key.IPProto), m.Key.IPTOS)
	b = binary.BigEndian.AppendUint16(b, m.Key.SrcPort)
	b = binary.BigEndian.AppendUint16(b, m.Key.DstPort)
	return append(b, 0, 0) // pad to matchLen
}

// actionsWireLen is the encoded size of an action list (Output = 12
// bytes, SetDLSrc/SetDLDst = 16 bytes, per OpenFlow 1.0).
func actionsWireLen(actions []Action) int {
	n := 0
	for _, a := range actions {
		switch a.(type) {
		case ActionOutput:
			n += 12
		case ActionSetDLSrc, ActionSetDLDst:
			n += 16
		default:
			panic(fmt.Sprintf("openflow: cannot size action %T", a))
		}
	}
	return n
}

func appendActions(b []byte, actions []Action) []byte {
	for _, a := range actions {
		switch v := a.(type) {
		case ActionOutput:
			b = binary.BigEndian.AppendUint16(b, actOutput)
			b = binary.BigEndian.AppendUint16(b, 12)
			b = binary.BigEndian.AppendUint32(b, v.Port)
			b = binary.BigEndian.AppendUint16(b, v.MaxLen)
			b = append(b, 0, 0)
		case ActionSetDLSrc:
			b = binary.BigEndian.AppendUint16(b, actSetDLSrc)
			b = binary.BigEndian.AppendUint16(b, 16)
			b = append(b, v.MAC[:]...)
			b = append(b, 0, 0, 0, 0, 0, 0)
		case ActionSetDLDst:
			b = binary.BigEndian.AppendUint16(b, actSetDLDst)
			b = binary.BigEndian.AppendUint16(b, 16)
			b = append(b, v.MAC[:]...)
			b = append(b, 0, 0, 0, 0, 0, 0)
		default:
			panic(fmt.Sprintf("openflow: cannot encode action %T", a))
		}
	}
	return b
}

// Decode parses one complete message from data (which must contain exactly
// one message, as produced by Encode or split by the stream framer). The
// message owns its memory: every byte slice it holds is a copy.
func Decode(data []byte) (Message, error) { return decode(data, nil) }

// reused is a receiver's storage for the two switch-bound messages a flow
// setup sends many of. Decoding into it allocates nothing once its action
// list has grown, so a message it returns is valid only until the next
// decode into it: its Actions and Data are reused, and Data aliases the
// frame.
type reused struct {
	fm FlowMod
	po PacketOut
}

// decode is Decode, filling FlowMod and PacketOut into rx when it is not
// nil.
func decode(data []byte, rx *reused) (Message, error) {
	if len(data) < headerLen {
		return nil, ErrTruncated
	}
	if data[0] != Version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, data[0])
	}
	typ := MsgType(data[1])
	length := int(binary.BigEndian.Uint16(data[2:4]))
	if length > len(data) || length < headerLen {
		return nil, ErrTruncated
	}
	xid := binary.BigEndian.Uint32(data[4:8])
	body := data[headerLen:length]
	var (
		fm *FlowMod
		po *PacketOut
	)
	if rx != nil {
		fm, po = &rx.fm, &rx.po
	}
	switch typ {
	case TypeHello:
		return &Hello{XID: xid}, nil
	case TypeEchoRequest:
		return &EchoRequest{XID: xid, Data: cloneBytes(body)}, nil
	case TypeEchoReply:
		return &EchoReply{XID: xid, Data: cloneBytes(body)}, nil
	case TypeFeaturesRequest:
		return &FeaturesRequest{XID: xid}, nil
	case TypeBarrierRequest:
		return &BarrierRequest{XID: xid}, nil
	case TypeBarrierReply:
		return &BarrierReply{XID: xid}, nil
	case TypeFeaturesReply:
		return decodeFeaturesReply(xid, body)
	case TypePacketIn:
		return decodePacketIn(xid, body)
	case TypePacketOut:
		return decodePacketOut(xid, body, po)
	case TypeFlowMod:
		return decodeFlowMod(xid, body, fm)
	case TypeFlowRemoved:
		return decodeFlowRemoved(xid, body)
	case TypePortStatus:
		return decodePortStatus(xid, body)
	case TypeStatsRequest:
		return decodeStatsRequest(xid, body)
	case TypeStatsReply:
		return decodeStatsReply(xid, body)
	case TypeError:
		if len(body) < 4 {
			return nil, ErrTruncated
		}
		return &ErrorMsg{XID: xid, Code: binary.BigEndian.Uint16(body[0:2]), Data: cloneBytes(body[4:])}, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadType, typ)
	}
}

func cloneBytes(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

func decodeFeaturesReply(xid uint32, b []byte) (Message, error) {
	if len(b) < 16 {
		return nil, ErrTruncated
	}
	m := &FeaturesReply{XID: xid, DPID: binary.BigEndian.Uint64(b[0:8]), NTables: b[8]}
	rest := b[16:]
	for len(rest) >= portDescLen {
		p, err := decodePortDesc(rest[:portDescLen])
		if err != nil {
			return nil, err
		}
		m.Ports = append(m.Ports, p)
		rest = rest[portDescLen:]
	}
	if len(rest) != 0 {
		return nil, ErrTruncated
	}
	return m, nil
}

func decodePortDesc(b []byte) (PortDesc, error) {
	if len(b) < portDescLen {
		return PortDesc{}, ErrTruncated
	}
	p := PortDesc{No: binary.BigEndian.Uint32(b[0:4])}
	copy(p.MAC[:], b[4:10])
	name := b[10:26]
	end := 0
	for end < len(name) && name[end] != 0 {
		end++
	}
	p.Name = string(name[:end])
	return p, nil
}

func decodePacketIn(xid uint32, b []byte) (Message, error) {
	if len(b) < 12 {
		return nil, ErrTruncated
	}
	return &PacketIn{
		XID:      xid,
		BufferID: binary.BigEndian.Uint32(b[0:4]),
		InPort:   binary.BigEndian.Uint32(b[4:8]),
		Reason:   b[8],
		Data:     cloneBytes(b[12:]),
	}, nil
}

// decodePacketOut decodes into a new PacketOut, or into po, reusing its
// action list and aliasing Data to b.
func decodePacketOut(xid uint32, b []byte, po *PacketOut) (Message, error) {
	if len(b) < 12 {
		return nil, ErrTruncated
	}
	actLen := int(binary.BigEndian.Uint16(b[8:10]))
	if len(b) < 12+actLen {
		return nil, ErrTruncated
	}
	var reuse []Action
	if po != nil {
		reuse = po.Actions[:0]
	}
	actions, err := decodeActions(b[12:12+actLen], reuse)
	if err != nil {
		return nil, err
	}
	data := b[12+actLen:]
	if po == nil {
		po, data = new(PacketOut), cloneBytes(data)
	}
	*po = PacketOut{
		XID:      xid,
		BufferID: binary.BigEndian.Uint32(b[0:4]),
		InPort:   binary.BigEndian.Uint32(b[4:8]),
		Actions:  actions,
		Data:     data,
	}
	return po, nil
}

func decodeMatch(b []byte) (flow.Match, error) {
	var m flow.Match
	if len(b) < matchLen {
		return m, ErrTruncated
	}
	m.Wildcards = flow.Wildcard(binary.BigEndian.Uint32(b[0:4]))
	m.Key.InPort = binary.BigEndian.Uint32(b[4:8])
	copy(m.Key.EthSrc[:], b[8:14])
	copy(m.Key.EthDst[:], b[14:20])
	m.Key.VLAN = binary.BigEndian.Uint16(b[20:22])
	m.Key.EthType = netpkt.EtherType(binary.BigEndian.Uint16(b[22:24]))
	copy(m.Key.IPSrc[:], b[24:28])
	copy(m.Key.IPDst[:], b[28:32])
	m.Key.IPProto = netpkt.IPProto(b[32])
	m.Key.IPTOS = b[33]
	m.Key.SrcPort = binary.BigEndian.Uint16(b[34:36])
	m.Key.DstPort = binary.BigEndian.Uint16(b[36:38])
	return m, nil
}

// decodeFlowMod decodes into a new FlowMod, or into fm, reusing its
// action list.
func decodeFlowMod(xid uint32, b []byte, fm *FlowMod) (Message, error) {
	if len(b) < matchLen+16 {
		return nil, ErrTruncated
	}
	m, err := decodeMatch(b)
	if err != nil {
		return nil, err
	}
	rest := b[matchLen:]
	var reuse []Action
	if fm != nil {
		reuse = fm.Actions[:0]
	}
	actions, err := decodeActions(rest[16:], reuse)
	if err != nil {
		return nil, err
	}
	if fm == nil {
		fm = new(FlowMod)
	}
	*fm = FlowMod{
		XID:         xid,
		Match:       m,
		Cookie:      binary.BigEndian.Uint64(rest[0:8]),
		Command:     rest[8],
		NotifyDel:   rest[9]&1 != 0,
		IdleTimeout: binary.BigEndian.Uint16(rest[10:12]),
		HardTimeout: binary.BigEndian.Uint16(rest[12:14]),
		Priority:    binary.BigEndian.Uint16(rest[14:16]),
		Actions:     actions,
	}
	return fm, nil
}

func decodeFlowRemoved(xid uint32, b []byte) (Message, error) {
	if len(b) < matchLen+28 {
		return nil, ErrTruncated
	}
	m, err := decodeMatch(b)
	if err != nil {
		return nil, err
	}
	rest := b[matchLen:]
	return &FlowRemoved{
		XID:      xid,
		Match:    m,
		Cookie:   binary.BigEndian.Uint64(rest[0:8]),
		Priority: binary.BigEndian.Uint16(rest[8:10]),
		Reason:   rest[10],
		Packets:  binary.BigEndian.Uint64(rest[12:20]),
		Bytes:    binary.BigEndian.Uint64(rest[20:28]),
	}, nil
}

func decodePortStatus(xid uint32, b []byte) (Message, error) {
	if len(b) < 8+portDescLen {
		return nil, ErrTruncated
	}
	desc, err := decodePortDesc(b[8:])
	if err != nil {
		return nil, err
	}
	return &PortStatus{XID: xid, Reason: b[0], Desc: desc}, nil
}

func decodeStatsRequest(xid uint32, b []byte) (Message, error) {
	if len(b) < 4 {
		return nil, ErrTruncated
	}
	m := &StatsRequest{XID: xid, Kind: StatsKind(binary.BigEndian.Uint16(b[0:2]))}
	if m.Kind == StatsFlow {
		match, err := decodeMatch(b[4:])
		if err != nil {
			return nil, err
		}
		m.Match = match
	}
	return m, nil
}

func decodeStatsReply(xid uint32, b []byte) (Message, error) {
	if len(b) < 4 {
		return nil, ErrTruncated
	}
	m := &StatsReply{XID: xid, Kind: StatsKind(binary.BigEndian.Uint16(b[0:2]))}
	rest := b[4:]
	switch m.Kind {
	case StatsFlow:
		for len(rest) >= flowStatLen {
			match, err := decodeMatch(rest)
			if err != nil {
				return nil, err
			}
			body := rest[matchLen:]
			m.Flows = append(m.Flows, FlowStat{
				Match:    match,
				Priority: binary.BigEndian.Uint16(body[0:2]),
				Cookie:   binary.BigEndian.Uint64(body[2:10]),
				Packets:  binary.BigEndian.Uint64(body[10:18]),
				Bytes:    binary.BigEndian.Uint64(body[18:26]),
			})
			rest = rest[flowStatLen:]
		}
	case StatsTable:
		for len(rest) >= tableStatLen {
			ts := TableStat{
				TableID:            rest[0],
				ActiveCount:        binary.BigEndian.Uint32(rest[4:8]),
				LookupCount:        binary.BigEndian.Uint64(rest[8:16]),
				MatchedCount:       binary.BigEndian.Uint64(rest[16:24]),
				MicroHits:          binary.BigEndian.Uint64(rest[24:32]),
				MicroMisses:        binary.BigEndian.Uint64(rest[32:40]),
				MicroInvalidations: binary.BigEndian.Uint64(rest[40:48]),
			}
			m.Tables = append(m.Tables, ts)
			rest = rest[tableStatLen:]
		}
	case StatsPort:
		for len(rest) >= portStatLen {
			ps := PortStat{PortNo: binary.BigEndian.Uint32(rest[0:4])}
			counters := []*uint64{&ps.RxPackets, &ps.TxPackets, &ps.RxBytes, &ps.TxBytes, &ps.RxDropped, &ps.TxDropped}
			for i, c := range counters {
				*c = binary.BigEndian.Uint64(rest[4+8*i : 12+8*i])
			}
			m.Ports = append(m.Ports, ps)
			rest = rest[portStatLen:]
		}
	}
	if len(rest) != 0 {
		return nil, ErrTruncated
	}
	return m, nil
}

// decodeActions appends the actions in b to actions, which is nil or a
// reused list emptied by the caller. Output actions come from
// OutputAction, so only a rewrite allocates once the list is big enough.
func decodeActions(b []byte, actions []Action) ([]Action, error) {
	if actions == nil {
		// Pre-size from the wire headers so a fresh decode allocates the
		// action slice exactly once.
		n := 0
		for rest := b; len(rest) >= 4; n++ {
			alen := int(binary.BigEndian.Uint16(rest[2:4]))
			if alen < 4 || alen > len(rest) {
				break
			}
			rest = rest[alen:]
		}
		if n > 0 {
			actions = make([]Action, 0, n)
		}
	}
	for len(b) > 0 {
		if len(b) < 4 {
			return nil, ErrTruncated
		}
		typ := binary.BigEndian.Uint16(b[0:2])
		alen := int(binary.BigEndian.Uint16(b[2:4]))
		if alen < 4 || alen > len(b) {
			return nil, ErrTruncated
		}
		body := b[4:alen]
		switch typ {
		case actOutput:
			if len(body) < 6 {
				return nil, ErrTruncated
			}
			port, maxLen := binary.BigEndian.Uint32(body[0:4]), binary.BigEndian.Uint16(body[4:6])
			if maxLen == 0 {
				actions = append(actions, OutputAction(port))
			} else {
				actions = append(actions, ActionOutput{Port: port, MaxLen: maxLen})
			}
		case actSetDLSrc:
			if len(body) < 6 {
				return nil, ErrTruncated
			}
			var a ActionSetDLSrc
			copy(a.MAC[:], body[0:6])
			actions = append(actions, a)
		case actSetDLDst:
			if len(body) < 6 {
				return nil, ErrTruncated
			}
			var a ActionSetDLDst
			copy(a.MAC[:], body[0:6])
			actions = append(actions, a)
		default:
			return nil, fmt.Errorf("openflow: unknown action type %d", typ)
		}
		b = b[alen:]
	}
	return actions, nil
}
