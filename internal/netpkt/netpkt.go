// Package netpkt models network packets: Ethernet II frames carrying ARP,
// LLDP, or IPv4 with TCP/UDP/ICMP, plus an application payload.
//
// Packets have a real binary wire format (Marshal/Unmarshal) used wherever
// bytes cross a protocol boundary (OpenFlow packet-in/packet-out, the
// service-element UDP protocol, deep packet inspection). Inside the
// simulator packets travel as typed values for speed; WireLen reports the
// length used for transmission-delay accounting, which may exceed the
// carried payload when a packet represents synthetic bulk data.
package netpkt

import (
	"encoding/binary"
	"fmt"
)

// MAC is a 48-bit Ethernet hardware address.
type MAC [6]byte

// Broadcast is the all-ones Ethernet broadcast address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

const hexDigits = "0123456789abcdef"

// String renders the address in colon-separated hex. Every flow event
// calls it, so it fills a fixed buffer rather than calling fmt.
func (m MAC) String() string {
	b := [17]byte{2: ':', 5: ':', 8: ':', 11: ':', 14: ':'}
	for i, x := range m {
		b[3*i], b[3*i+1] = hexDigits[x>>4], hexDigits[x&0xf]
	}
	return string(b[:])
}

// IsBroadcast reports whether the address is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == Broadcast }

// IsZero reports whether the address is all zeroes.
func (m MAC) IsZero() bool { return m == MAC{} }

// MACFromUint64 derives a locally-administered unicast MAC from n.
func MACFromUint64(n uint64) MAC {
	var m MAC
	m[0] = 0x02 // locally administered, unicast
	m[1] = byte(n >> 32)
	m[2] = byte(n >> 24)
	m[3] = byte(n >> 16)
	m[4] = byte(n >> 8)
	m[5] = byte(n)
	return m
}

// IPv4Addr is a 32-bit IPv4 address.
type IPv4Addr [4]byte

// String renders the address in dotted-quad form.
func (a IPv4Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// IsZero reports whether the address is 0.0.0.0.
func (a IPv4Addr) IsZero() bool { return a == IPv4Addr{} }

// IP returns the address a.b.c.d.
func IP(a, b, c, d byte) IPv4Addr { return IPv4Addr{a, b, c, d} }

// IPFromUint32 converts a big-endian uint32 to an address.
func IPFromUint32(v uint32) IPv4Addr {
	var a IPv4Addr
	binary.BigEndian.PutUint32(a[:], v)
	return a
}

// Uint32 returns the address as a big-endian uint32.
func (a IPv4Addr) Uint32() uint32 { return binary.BigEndian.Uint32(a[:]) }

// EtherType identifies the payload of an Ethernet frame.
type EtherType uint16

// EtherTypes used by LiveSec.
const (
	EtherTypeIPv4 EtherType = 0x0800
	EtherTypeARP  EtherType = 0x0806
	EtherTypeVLAN EtherType = 0x8100
	EtherTypeLLDP EtherType = 0x88cc
)

// IPProto identifies the transport protocol inside IPv4.
type IPProto uint8

// IP protocol numbers used by LiveSec.
const (
	ProtoICMP IPProto = 1
	ProtoTCP  IPProto = 6
	ProtoUDP  IPProto = 17
)

// ARP opcode values.
const (
	ARPRequest uint16 = 1
	ARPReply   uint16 = 2
)

// ARP is an Ethernet/IPv4 ARP message.
type ARP struct {
	Op        uint16
	SenderMAC MAC
	SenderIP  IPv4Addr
	TargetMAC MAC
	TargetIP  IPv4Addr
}

// LLDP carries the two TLVs LiveSec topology discovery needs: the sending
// switch's datapath ID and port number.
type LLDP struct {
	ChassisID uint64 // datapath ID of the emitting switch
	PortID    uint32 // port the frame was emitted from
}

// IPv4Header is the subset of the IPv4 header LiveSec inspects.
type IPv4Header struct {
	TOS      uint8
	TTL      uint8
	Proto    IPProto
	Src, Dst IPv4Addr
}

// TCPHeader is the subset of the TCP header LiveSec inspects.
type TCPHeader struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	SYN, ACK, FIN    bool
	RST              bool
}

// UDPHeader is the UDP header (length/checksum are derived on marshal).
type UDPHeader struct {
	SrcPort, DstPort uint16
}

// ICMP type values used by LiveSec.
const (
	ICMPEchoReply   uint8 = 0
	ICMPEchoRequest uint8 = 8
)

// ICMPHeader is an ICMP echo header.
type ICMPHeader struct {
	Type uint8
	Code uint8
	ID   uint16
	Seq  uint16
}

// Packet is one Ethernet frame moving through the simulated network.
// Exactly one of ARP, LLDP, IP should be set according to EthType; when IP
// is set, at most one of TCP, UDP, ICMP is set according to IP.Proto.
type Packet struct {
	EthDst  MAC
	EthSrc  MAC
	VLAN    uint16 // 0 means untagged
	EthType EtherType

	ARP  *ARP
	LLDP *LLDP
	IP   *IPv4Header
	TCP  *TCPHeader
	UDP  *UDPHeader
	ICMP *ICMPHeader

	// Payload is the application payload carried after the innermost
	// header. For DPI purposes it holds real bytes (possibly truncated).
	Payload []byte

	// BulkLen, when nonzero, is the pretended total application payload
	// length. It lets a workload generator model an MTU-sized data packet
	// while carrying only a short representative payload. WireLen uses it
	// for transmission-time accounting.
	BulkLen int
}

// Header sizes on the wire.
const (
	ethHeaderLen  = 14
	vlanTagLen    = 4
	arpBodyLen    = 28
	lldpBodyLen   = 16
	ipv4HeaderLen = 20
	tcpHeaderLen  = 20
	udpHeaderLen  = 8
	icmpHeaderLen = 8
)

// headerLen returns the total header length of the frame on the wire.
func (p *Packet) headerLen() int {
	n := ethHeaderLen
	if p.VLAN != 0 {
		n += vlanTagLen
	}
	switch p.EthType {
	case EtherTypeARP:
		return n + arpBodyLen
	case EtherTypeLLDP:
		return n + lldpBodyLen
	case EtherTypeIPv4:
		n += ipv4HeaderLen
		if p.IP == nil {
			return n
		}
		switch p.IP.Proto {
		case ProtoTCP:
			n += tcpHeaderLen
		case ProtoUDP:
			n += udpHeaderLen
		case ProtoICMP:
			n += icmpHeaderLen
		}
	}
	return n
}

// PayloadLen returns the modeled application payload length.
func (p *Packet) PayloadLen() int {
	if p.BulkLen > len(p.Payload) {
		return p.BulkLen
	}
	return len(p.Payload)
}

// WireLen returns the frame length in bytes used for transmission-delay
// accounting. ARP and LLDP frames are padded to the Ethernet minimum.
func (p *Packet) WireLen() int {
	n := p.headerLen() + p.PayloadLen()
	if n < 60 {
		n = 60
	}
	return n
}

// CopyFrame returns a copy of the packet's Ethernet frame fields (EthDst,
// EthSrc, VLAN, EthType, BulkLen) that shares the protocol headers and
// the payload with p. It is what a forwarding element takes before a
// dl_dst/dl_src rewrite, under the convention the data path keeps: once a
// packet has been sent, nobody writes through its header pointers or into
// its payload, and only the holder of a fresh frame copy writes its
// Ethernet fields — so other queued references to p stay intact at the
// cost of one small allocation. Use Clone to change anything else.
func (p *Packet) CopyFrame() *Packet {
	q := *p
	return &q
}

// Clone returns a deep copy of the packet: headers and payload of the
// copy can be modified without affecting p.
func (p *Packet) Clone() *Packet {
	q := *p
	if p.ARP != nil {
		a := *p.ARP
		q.ARP = &a
	}
	if p.LLDP != nil {
		l := *p.LLDP
		q.LLDP = &l
	}
	if p.IP != nil {
		ip := *p.IP
		q.IP = &ip
	}
	if p.TCP != nil {
		t := *p.TCP
		q.TCP = &t
	}
	if p.UDP != nil {
		u := *p.UDP
		q.UDP = &u
	}
	if p.ICMP != nil {
		c := *p.ICMP
		q.ICMP = &c
	}
	if p.Payload != nil {
		q.Payload = append([]byte(nil), p.Payload...)
	}
	return &q
}

// String renders a compact human-readable summary.
func (p *Packet) String() string {
	switch {
	case p.ARP != nil:
		op := "request"
		if p.ARP.Op == ARPReply {
			op = "reply"
		}
		return fmt.Sprintf("ARP %s %s->%s", op, p.ARP.SenderIP, p.ARP.TargetIP)
	case p.LLDP != nil:
		return fmt.Sprintf("LLDP dpid=%d port=%d", p.LLDP.ChassisID, p.LLDP.PortID)
	case p.IP != nil:
		proto := "ip"
		var sp, dp uint16
		switch {
		case p.TCP != nil:
			proto, sp, dp = "tcp", p.TCP.SrcPort, p.TCP.DstPort
		case p.UDP != nil:
			proto, sp, dp = "udp", p.UDP.SrcPort, p.UDP.DstPort
		case p.ICMP != nil:
			proto = "icmp"
		}
		return fmt.Sprintf("%s %s:%d->%s:%d len=%d", proto, p.IP.Src, sp, p.IP.Dst, dp, p.WireLen())
	default:
		return fmt.Sprintf("eth %s->%s type=%#04x", p.EthSrc, p.EthDst, uint16(p.EthType))
	}
}
