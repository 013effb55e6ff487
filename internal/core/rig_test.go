package core

// setupRig: a Controller over capture-only channels, taught its topology
// through the messages a live network sends, the way bench/corerig.go
// does. White-box tests feed it packet-ins and read what it sent.

import (
	"fmt"
	"testing"

	"livesec/internal/monitor"
	"livesec/internal/netpkt"
	"livesec/internal/openflow"
	"livesec/internal/seproto"
	"livesec/internal/service"
	"livesec/internal/sim"
)

// rigUplink is the one port of every rig switch that reaches all peers.
const rigUplink uint32 = 100

// sentMsg is one captured control message.
type sentMsg struct {
	dpid  uint64
	batch int              // 0 for a lone Send, else the ordinal of the batched write it rode in
	m     openflow.Message // decoded from wire: a Conn keeps no message past its send
	wire  []byte           // encoded at capture time
}

// capConn is a capture-only secure channel.
type capConn struct {
	rig     *setupRig
	dpid    uint64
	handler func(openflow.Message)
}

func (c *capConn) Send(m openflow.Message) { c.rig.capture(c.dpid, 0, m) }
func (c *capConn) SendBatch(ms []openflow.Message) {
	c.rig.batches++
	for _, m := range ms {
		c.rig.capture(c.dpid, c.rig.batches, m)
	}
}
func (c *capConn) SetHandler(fn func(openflow.Message)) { c.handler = fn }
func (c *capConn) Close() error                         { return nil }

type rigHost struct {
	dpid uint64
	port uint32
	mac  netpkt.MAC
	ip   netpkt.IPv4Addr
}

type rigElem struct {
	id   uint64
	svc  seproto.ServiceType
	dpid uint64
	port uint32
}

func (e rigElem) host() rigHost {
	return rigHost{dpid: e.dpid, port: e.port, mac: netpkt.MACFromUint64(0x5E0000 + e.id),
		ip: netpkt.IP(10, 9, byte(e.id>>8), byte(e.id))}
}

// setupRig is a Controller over capture-only channels.
type setupRig struct {
	c       *Controller
	store   *monitor.Store
	conns   map[uint64]*capConn
	sent    []sentMsg
	batches int
	keep    bool
}

func (r *setupRig) capture(dpid uint64, batch int, m openflow.Message) {
	if r.keep {
		wire := openflow.Encode(m)
		kept, err := openflow.Decode(wire)
		if err != nil {
			panic(fmt.Sprintf("rig: captured %s does not decode: %v", m.Type(), err))
		}
		r.sent = append(r.sent, sentMsg{dpid: dpid, batch: batch, m: kept, wire: wire})
	}
}

func (r *setupRig) packetIn(dpid uint64, port uint32, pkt *netpkt.Packet) {
	r.conns[dpid].handler(&openflow.PacketIn{BufferID: openflow.NoBuffer, InPort: port,
		Reason: openflow.ReasonNoMatch, Data: pkt.Marshal()})
}

// announce delivers a host's gratuitous ARP.
func (r *setupRig) announce(h rigHost) {
	r.packetIn(h.dpid, h.port, netpkt.NewARPRequest(h.mac, h.ip, h.ip))
}

// online delivers an element's ONLINE report.
func (r *setupRig) online(e rigElem) {
	h := e.host()
	online := seproto.MarshalOnline(&seproto.Online{SEID: e.id, Service: e.svc,
		Cert: r.c.Certify(e.id, h.mac), CapacityBps: service.DefaultCapacityBps})
	r.packetIn(h.dpid, h.port, netpkt.NewUDP(h.mac, service.ControllerMAC, h.ip,
		service.ControllerIP, seproto.Port, seproto.Port, online))
}

// newSetupRig builds a controller from cfg (Engine and Store are filled
// in) and teaches it the topology with the messages a live network
// sends: features replies, LLDP probes on the uplinks, gratuitous ARPs
// and element ONLINE reports. Everything sent from the first Hello on is
// captured.
func newSetupRig(tb testing.TB, cfg Config, dpids []uint64, hosts []rigHost, elems []rigElem) *setupRig {
	tb.Helper()
	r := &setupRig{store: monitor.NewStore(0), conns: make(map[uint64]*capConn), keep: true}
	cfg.Engine = sim.NewEngine(1)
	cfg.Store = r.store
	r.c = New(cfg)
	for _, dpid := range dpids {
		conn := &capConn{rig: r, dpid: dpid}
		r.conns[dpid] = conn
		r.c.AddSwitch(conn)
		ports := []openflow.PortDesc{{No: rigUplink, Name: fmt.Sprintf("sw%d-p%d", dpid, rigUplink)}}
		for _, h := range hosts {
			if h.dpid == dpid {
				ports = append(ports, openflow.PortDesc{No: h.port, Name: fmt.Sprintf("sw%d-p%d", dpid, h.port)})
			}
		}
		for _, e := range elems {
			if e.dpid == dpid {
				ports = append(ports, openflow.PortDesc{No: e.port, Name: fmt.Sprintf("sw%d-p%d", dpid, e.port)})
			}
		}
		conn.handler(&openflow.FeaturesReply{DPID: dpid, NTables: 1, Ports: ports})
	}
	// The fabric floods each switch's uplink probe to every peer's uplink.
	for _, a := range dpids {
		for _, b := range dpids {
			if a != b {
				r.packetIn(b, rigUplink, netpkt.NewLLDP(lldpSrc, a, rigUplink))
			}
		}
	}
	for _, h := range hosts {
		r.announce(h)
	}
	for _, e := range elems {
		r.online(e)
	}
	if len(dpids) > 1 && !r.c.FullMesh() {
		tb.Fatalf("rig controller did not learn the full mesh of %d switches", len(dpids))
	}
	if got, want := len(r.c.hosts), len(hosts)+len(elems); got != want {
		tb.Fatalf("rig controller learnt %d of %d hosts and elements", got, want)
	}
	return r
}

// flowIn delivers the first packet of a TCP flow from src to the host
// with dst's addresses, then acknowledges every barrier the setup sent
// (in order, until none is left) so a barriered release completes. It
// returns the messages the setup produced.
func (r *setupRig) flowIn(src, dst rigHost, srcPort uint16) []sentMsg {
	start := len(r.sent)
	r.packetIn(src.dpid, src.port, netpkt.NewTCP(src.mac, dst.mac, src.ip, dst.ip, srcPort, 80, []byte("hello")))
	for i := start; i < len(r.sent); i++ {
		if br, ok := r.sent[i].m.(*openflow.BarrierRequest); ok {
			r.conns[r.sent[i].dpid].handler(&openflow.BarrierReply{XID: br.XID})
		}
	}
	return r.sent[start:]
}

// resyncAll takes every switch down and through a resync, which sends
// its shadow table and its sessions' entries in order. The barriers are
// left unanswered.
func (r *setupRig) resyncAll() {
	for _, st := range r.c.sortedSwitches() {
		r.c.markSwitchDown(st, "golden")
		r.c.beginResync(st)
	}
}
