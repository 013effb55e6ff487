package main

import (
	"fmt"

	"livesec"
	"livesec/internal/core"
	"livesec/internal/monitor"
	"livesec/internal/netpkt"
	"livesec/internal/obs"
	"livesec/internal/openflow"
	"livesec/internal/policy"
	"livesec/internal/seproto"
	"livesec/internal/service"
	"livesec/internal/sim"
)

// topoElem is a service element in a replay topology.
type topoElem struct {
	id      uint64
	host    wireHost
	service seproto.ServiceType
}

// topoSwitch is one access switch of a replay topology: its hosts and
// elements sit on access ports, and port uplinkPort reaches every peer.
type topoSwitch struct {
	dpid  uint64
	hosts []wireHost
	elems []topoElem
}

// wireTopo is the two-switch topology the wire workloads run against.
func wireTopo(hosts int) []topoSwitch {
	return []topoSwitch{
		{dpid: 101, hosts: wireHosts(0, hosts)},
		{dpid: 102, hosts: wireHosts(1, hosts)},
	}
}

// fitTopo lays a FIT deployment out the way testbed.BuildFIT does: the
// gateway on the first OvS, IDS then L7 elements filling one OvS each,
// wired users round-robin over the OvSes, wireless users over the APs.
// users lists the user hosts (wired first) and gateway the gateway.
func fitTopo(fo livesec.FITOptions) (sws []topoSwitch, users []wireHost, gateway wireHost) {
	sws = make([]topoSwitch, fo.OvS+fo.APs)
	next := make([]uint32, len(sws)) // last access port handed out
	for i := range sws {
		sws[i].dpid = uint64(i + 1)
	}
	hostID := 0
	attach := func(sw int, ip netpkt.IPv4Addr) wireHost {
		hostID++
		next[sw]++
		h := wireHost{mac: netpkt.MACFromUint64(uint64(hostID)), ip: ip, port: next[sw]}
		sws[sw].hosts = append(sws[sw].hosts, h)
		return h
	}
	gateway = attach(0, livesec.GatewayIP)
	var seID uint64
	for hi := 0; hi < fo.IDSHosts+fo.L7Hosts; hi++ {
		svc := seproto.ServiceIDS
		if hi >= fo.IDSHosts {
			svc = seproto.ServiceL7
		}
		sw := hi % fo.OvS
		for v := 0; v < fo.VMsPerHost; v++ {
			seID++
			next[sw]++
			sws[sw].elems = append(sws[sw].elems, topoElem{id: seID, service: svc, host: wireHost{
				mac: netpkt.MACFromUint64(0x5E0000 + seID), ip: netpkt.IP(10, 9, byte(seID>>8), byte(seID)), port: next[sw]}})
		}
	}
	for i := 0; i < fo.WiredUsers; i++ {
		users = append(users, attach(i%fo.OvS, netpkt.IP(10, 1, byte(i>>8), byte(i+1))))
	}
	for i := 0; i < fo.WirelessUsers; i++ {
		users = append(users, attach(fo.OvS+i%fo.APs, netpkt.IP(10, 2, byte(i>>8), byte(i+1))))
	}
	return sws, users, gateway
}

// capConn is a capture-only secure channel: it hands the controller's
// handler to the replay and drops, or keeps, what the controller sends.
type capConn struct {
	handler func(openflow.Message)
	rig     *coreRig
}

func (c *capConn) Send(m openflow.Message)                      { c.rig.captured(m) }
func (c *capConn) SendBatch(ms []openflow.Message)              { c.rig.captured(ms...) }
func (c *capConn) SetHandler(fn func(openflow.Message))         { c.handler = fn }
func (c *capConn) Close() error                                 { return nil }
func (r *coreRig) handlerOf(dpid uint64) func(openflow.Message) { return r.conns[dpid].handler }

// coreRig is an in-process core.Controller over capture-only channels,
// taught a replay topology through the same messages a live network
// sends: features replies, LLDP probes seen on the uplinks, gratuitous
// ARPs, and element ONLINE reports. Packet-ins are then fed straight to
// the handlers the controller registered.
type coreRig struct {
	eng   *sim.Engine
	store *monitor.Store
	ctrl  *core.Controller
	conns map[uint64]*capConn

	keep bool               // keep sent messages in sent
	sent []openflow.Message // messages the controller sent while keep was on
}

func (r *coreRig) captured(ms ...openflow.Message) {
	if r.keep {
		r.sent = append(r.sent, ms...)
	}
}

// newCoreRig builds the controller and teaches it the topology. withObs
// attaches the observability hooks.
func newCoreRig(seed int64, topo []topoSwitch, pt *policy.Table, withObs bool) (*coreRig, error) {
	r := &coreRig{eng: sim.NewEngine(seed), store: monitor.NewStore(0), conns: make(map[uint64]*capConn)}
	cfg := core.Config{Engine: r.eng, Store: r.store, Policies: pt, Seed: seed}
	if withObs {
		cfg.Obs = obs.NewFlowObs(0)
	}
	r.ctrl = core.New(cfg)
	for _, sw := range topo {
		c := &capConn{rig: r}
		r.conns[sw.dpid] = c
		r.ctrl.AddSwitch(c)
		ports := []openflow.PortDesc{{No: uplinkPort, Name: fmt.Sprintf("sw%d-p%d", sw.dpid, uplinkPort)}}
		for _, h := range sw.hosts {
			ports = append(ports, openflow.PortDesc{No: h.port, Name: fmt.Sprintf("sw%d-p%d", sw.dpid, h.port)})
		}
		for _, e := range sw.elems {
			ports = append(ports, openflow.PortDesc{No: e.host.port, Name: fmt.Sprintf("sw%d-p%d", sw.dpid, e.host.port)})
		}
		c.handler(&openflow.FeaturesReply{DPID: sw.dpid, NTables: 1, Ports: ports})
	}
	packetIn := func(dpid uint64, port uint32, pkt *netpkt.Packet) {
		r.conns[dpid].handler(&openflow.PacketIn{BufferID: openflow.NoBuffer, InPort: port,
			Reason: openflow.ReasonNoMatch, Data: pkt.Marshal()})
	}
	// The fabric floods each switch's uplink probe to every peer's uplink.
	for _, a := range topo {
		for _, b := range topo {
			if a.dpid != b.dpid {
				packetIn(b.dpid, uplinkPort, netpkt.NewLLDP(netpkt.MAC{2, 0, 0, 0, 0, 0xd1}, a.dpid, uplinkPort))
			}
		}
	}
	for _, sw := range topo {
		for _, h := range sw.hosts {
			packetIn(sw.dpid, h.port, netpkt.NewARPRequest(h.mac, h.ip, h.ip))
		}
		for _, e := range sw.elems {
			online := seproto.MarshalOnline(&seproto.Online{SEID: e.id, Service: e.service,
				Cert: r.ctrl.Certify(e.id, e.host.mac), CapacityBps: service.DefaultCapacityBps})
			packetIn(sw.dpid, e.host.port, netpkt.NewUDP(e.host.mac, service.ControllerMAC, e.host.ip,
				service.ControllerIP, seproto.Port, seproto.Port, online))
		}
	}
	if !r.ctrl.FullMesh() {
		return nil, fmt.Errorf("replay controller did not learn the full mesh of %d switches", len(topo))
	}
	want := 0
	for _, sw := range topo {
		want += len(sw.hosts) + len(sw.elems)
	}
	if got := len(r.ctrl.Hosts()); got != want {
		return nil, fmt.Errorf("replay controller learnt %d of %d hosts and elements", got, want)
	}
	return r, nil
}

// fillers are events of the kind and size a flow setup records, built
// ahead so that replays time the store and not the formatting.
var fillers = func() []monitor.Event {
	evs := make([]monitor.Event, 4096)
	for i := range evs {
		evs[i] = monitor.Event{Type: monitor.EventFlowStart, Switch: 1,
			User:     "02:00:00:00:00:01",
			FlowDesc: fmt.Sprintf("in=1 02:00:00:00:00:01->02:00:00:00:00:02 t=0x0800 10.1.0.1:%d->10.2.0.1:80 proto=6", 32768+i),
			Detail:   "allow default"}
	}
	return evs
}()

func fillerEvent(i int) monitor.Event { return fillers[i%len(fillers)] }
