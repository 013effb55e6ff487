package netpkt

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Errors returned by Unmarshal.
var (
	ErrTruncated   = errors.New("netpkt: truncated frame")
	ErrUnsupported = errors.New("netpkt: unsupported frame")
)

// Marshal encodes the packet to its binary wire format. Only the real
// carried payload is written; BulkLen is a simulation-side annotation and
// does not appear on the wire.
func (p *Packet) Marshal() []byte {
	return p.MarshalAppend(make([]byte, 0, p.headerLen()+len(p.Payload)))
}

// MarshalAppend appends the packet's wire format to buf and returns the
// extended buffer; it allocates only to grow buf.
func (p *Packet) MarshalAppend(buf []byte) []byte {
	buf = append(buf, p.EthDst[:]...)
	buf = append(buf, p.EthSrc[:]...)
	if p.VLAN != 0 {
		buf = binary.BigEndian.AppendUint16(buf, uint16(EtherTypeVLAN))
		buf = binary.BigEndian.AppendUint16(buf, p.VLAN&0x0fff)
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(p.EthType))
	switch p.EthType {
	case EtherTypeARP:
		buf = p.marshalARP(buf)
	case EtherTypeLLDP:
		buf = p.marshalLLDP(buf)
	case EtherTypeIPv4:
		buf = p.marshalIPv4(buf)
	default:
		buf = append(buf, p.Payload...)
	}
	return buf
}

func (p *Packet) marshalARP(buf []byte) []byte {
	a := p.ARP
	if a == nil {
		a = &ARP{}
	}
	buf = binary.BigEndian.AppendUint16(buf, 1) // htype: Ethernet
	buf = binary.BigEndian.AppendUint16(buf, uint16(EtherTypeIPv4))
	buf = append(buf, 6, 4) // hlen, plen
	buf = binary.BigEndian.AppendUint16(buf, a.Op)
	buf = append(buf, a.SenderMAC[:]...)
	buf = append(buf, a.SenderIP[:]...)
	buf = append(buf, a.TargetMAC[:]...)
	buf = append(buf, a.TargetIP[:]...)
	return buf
}

func (p *Packet) marshalLLDP(buf []byte) []byte {
	l := p.LLDP
	if l == nil {
		l = &LLDP{}
	}
	// Simplified LLDP body: chassis (8 bytes dpid) + port (4 bytes) + pad.
	buf = binary.BigEndian.AppendUint64(buf, l.ChassisID)
	buf = binary.BigEndian.AppendUint32(buf, l.PortID)
	buf = append(buf, 0, 0, 0, 0) // end-of-LLDPDU padding
	return buf
}

func (p *Packet) marshalIPv4(buf []byte) []byte {
	ip := p.IP
	if ip == nil {
		ip = &IPv4Header{TTL: 64}
	}
	transportLen := 0
	switch ip.Proto {
	case ProtoTCP:
		transportLen = tcpHeaderLen
	case ProtoUDP:
		transportLen = udpHeaderLen
	case ProtoICMP:
		transportLen = icmpHeaderLen
	}
	totalLen := ipv4HeaderLen + transportLen + len(p.Payload)
	buf = append(buf, 0x45, ip.TOS)
	buf = binary.BigEndian.AppendUint16(buf, uint16(totalLen))
	buf = append(buf, 0, 0, 0, 0) // id, flags, frag offset
	buf = append(buf, ip.TTL, byte(ip.Proto))
	buf = append(buf, 0, 0) // header checksum (not modeled)
	buf = append(buf, ip.Src[:]...)
	buf = append(buf, ip.Dst[:]...)
	switch ip.Proto {
	case ProtoTCP:
		t := p.TCP
		if t == nil {
			t = &TCPHeader{}
		}
		buf = binary.BigEndian.AppendUint16(buf, t.SrcPort)
		buf = binary.BigEndian.AppendUint16(buf, t.DstPort)
		buf = binary.BigEndian.AppendUint32(buf, t.Seq)
		buf = binary.BigEndian.AppendUint32(buf, t.Ack)
		var flags uint16
		if t.FIN {
			flags |= 0x01
		}
		if t.SYN {
			flags |= 0x02
		}
		if t.RST {
			flags |= 0x04
		}
		if t.ACK {
			flags |= 0x10
		}
		buf = binary.BigEndian.AppendUint16(buf, 0x5000|flags) // data offset 5
		buf = append(buf, 0xff, 0xff, 0, 0, 0, 0)              // window, checksum, urgent
	case ProtoUDP:
		u := p.UDP
		if u == nil {
			u = &UDPHeader{}
		}
		buf = binary.BigEndian.AppendUint16(buf, u.SrcPort)
		buf = binary.BigEndian.AppendUint16(buf, u.DstPort)
		buf = binary.BigEndian.AppendUint16(buf, uint16(udpHeaderLen+len(p.Payload)))
		buf = append(buf, 0, 0) // checksum (not modeled)
	case ProtoICMP:
		c := p.ICMP
		if c == nil {
			c = &ICMPHeader{}
		}
		buf = append(buf, c.Type, c.Code, 0, 0)
		buf = binary.BigEndian.AppendUint16(buf, c.ID)
		buf = binary.BigEndian.AppendUint16(buf, c.Seq)
	}
	return append(buf, p.Payload...)
}

// Unmarshal parses a binary frame produced by Marshal (or any real frame
// using the supported layers) into a new packet with headers and payload
// of its own.
func Unmarshal(data []byte) (*Packet, error) {
	if len(data) < ethHeaderLen {
		return nil, ErrTruncated
	}
	p := &Packet{}
	var h headers
	return p, p.unmarshal(data, &h)
}

// Decoder parses frames into a packet and headers it owns and reuses, so
// a decode allocates nothing once each header kind has been seen. What
// Decode returns is valid until the next Decode, and its Payload aliases
// the frame.
type Decoder struct {
	pkt Packet
	hdr headers
}

// Decode parses data as Unmarshal does, into the decoder's packet.
func (d *Decoder) Decode(data []byte) (*Packet, error) {
	d.pkt = Packet{}
	if len(data) < ethHeaderLen {
		return nil, ErrTruncated
	}
	d.hdr.alias = true
	return &d.pkt, d.pkt.unmarshal(data, &d.hdr)
}

// headers holds the protocol headers a decode fills, each made on first
// use: a Decoder's persist, so later frames reuse them.
type headers struct {
	arp   *ARP
	lldp  *LLDP
	ip    *IPv4Header
	tcp   *TCPHeader
	udp   *UDPHeader
	icmp  *ICMPHeader
	alias bool // the payload aliases the frame instead of copying it
}

// use returns *h, made first if nil.
func use[T any](h **T) *T {
	if *h == nil {
		*h = new(T)
	}
	return *h
}

// payload is b as a packet's payload: nil when empty.
func (h *headers) payload(b []byte) []byte {
	switch {
	case len(b) == 0:
		return nil
	case h.alias:
		return b
	}
	return append([]byte(nil), b...)
}

// unmarshal parses data, at least an Ethernet header long, into p, taking
// its headers and payload from h.
func (p *Packet) unmarshal(data []byte, h *headers) error {
	copy(p.EthDst[:], data[0:6])
	copy(p.EthSrc[:], data[6:12])
	et := EtherType(binary.BigEndian.Uint16(data[12:14]))
	rest := data[14:]
	if et == EtherTypeVLAN {
		if len(rest) < 4 {
			return ErrTruncated
		}
		p.VLAN = binary.BigEndian.Uint16(rest[0:2]) & 0x0fff
		et = EtherType(binary.BigEndian.Uint16(rest[2:4]))
		rest = rest[4:]
	}
	p.EthType = et
	switch et {
	case EtherTypeARP:
		return p.unmarshalARP(rest, h)
	case EtherTypeLLDP:
		return p.unmarshalLLDP(rest, h)
	case EtherTypeIPv4:
		return p.unmarshalIPv4(rest, h)
	default:
		p.Payload = h.payload(rest)
		return nil
	}
}

func (p *Packet) unmarshalARP(b []byte, h *headers) error {
	if len(b) < arpBodyLen {
		return ErrTruncated
	}
	a := use(&h.arp)
	*a = ARP{Op: binary.BigEndian.Uint16(b[6:8])}
	copy(a.SenderMAC[:], b[8:14])
	copy(a.SenderIP[:], b[14:18])
	copy(a.TargetMAC[:], b[18:24])
	copy(a.TargetIP[:], b[24:28])
	p.ARP = a
	return nil
}

func (p *Packet) unmarshalLLDP(b []byte, h *headers) error {
	if len(b) < lldpBodyLen-4 {
		return ErrTruncated
	}
	p.LLDP = use(&h.lldp)
	*p.LLDP = LLDP{
		ChassisID: binary.BigEndian.Uint64(b[0:8]),
		PortID:    binary.BigEndian.Uint32(b[8:12]),
	}
	return nil
}

func (p *Packet) unmarshalIPv4(b []byte, h *headers) error {
	if len(b) < ipv4HeaderLen {
		return ErrTruncated
	}
	ihl := int(b[0]&0x0f) * 4
	if b[0]>>4 != 4 {
		return fmt.Errorf("%w: IP version %d", ErrUnsupported, b[0]>>4)
	}
	if ihl < ipv4HeaderLen || len(b) < ihl {
		return ErrTruncated
	}
	ip := use(&h.ip)
	*ip = IPv4Header{
		TOS:   b[1],
		TTL:   b[8],
		Proto: IPProto(b[9]),
	}
	copy(ip.Src[:], b[12:16])
	copy(ip.Dst[:], b[16:20])
	p.IP = ip
	totalLen := int(binary.BigEndian.Uint16(b[2:4]))
	if totalLen > len(b) {
		totalLen = len(b) // tolerate padded frames
	}
	body := b[ihl:totalLen]
	switch ip.Proto {
	case ProtoTCP:
		if len(body) < tcpHeaderLen {
			return ErrTruncated
		}
		flags := binary.BigEndian.Uint16(body[12:14])
		dataOff := int(flags>>12) * 4
		if dataOff < tcpHeaderLen || len(body) < dataOff {
			return ErrTruncated
		}
		p.TCP = use(&h.tcp)
		*p.TCP = TCPHeader{
			SrcPort: binary.BigEndian.Uint16(body[0:2]),
			DstPort: binary.BigEndian.Uint16(body[2:4]),
			Seq:     binary.BigEndian.Uint32(body[4:8]),
			Ack:     binary.BigEndian.Uint32(body[8:12]),
			FIN:     flags&0x01 != 0,
			SYN:     flags&0x02 != 0,
			RST:     flags&0x04 != 0,
			ACK:     flags&0x10 != 0,
		}
		p.Payload = h.payload(body[dataOff:])
	case ProtoUDP:
		if len(body) < udpHeaderLen {
			return ErrTruncated
		}
		p.UDP = use(&h.udp)
		*p.UDP = UDPHeader{
			SrcPort: binary.BigEndian.Uint16(body[0:2]),
			DstPort: binary.BigEndian.Uint16(body[2:4]),
		}
		udpLen := int(binary.BigEndian.Uint16(body[4:6]))
		if udpLen > len(body) || udpLen < udpHeaderLen {
			udpLen = len(body)
		}
		p.Payload = h.payload(body[udpHeaderLen:udpLen])
	case ProtoICMP:
		if len(body) < icmpHeaderLen {
			return ErrTruncated
		}
		p.ICMP = use(&h.icmp)
		*p.ICMP = ICMPHeader{
			Type: body[0],
			Code: body[1],
			ID:   binary.BigEndian.Uint16(body[4:6]),
			Seq:  binary.BigEndian.Uint16(body[6:8]),
		}
		p.Payload = h.payload(body[icmpHeaderLen:])
	default:
		p.Payload = h.payload(body)
	}
	return nil
}
