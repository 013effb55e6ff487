package dataplane

import (
	"slices"
	"testing"
	"time"

	"livesec/internal/flow"
	"livesec/internal/link"
	"livesec/internal/netpkt"
	"livesec/internal/openflow"
	"livesec/internal/sim"
)

// endpoint is a host-like packet sink for switch tests.
type endpoint struct {
	got []*netpkt.Packet
	ep  link.Endpoint
}

func (h *endpoint) Receive(_ uint32, pkt *netpkt.Packet) { h.got = append(h.got, pkt) }

// rig wires a switch with two host ports and a controller pipe.
type rig struct {
	eng     *sim.Engine
	sw      *Switch
	h1, h2  *endpoint
	ctrl    openflow.Conn // controller-side endpoint
	ctrlGot []openflow.Message
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := sim.NewEngine(1)
	sw := New(eng, Config{DPID: 7, Name: "ovs7", Kind: KindOvS})
	r := &rig{eng: eng, sw: sw, h1: &endpoint{}, h2: &endpoint{}}
	l1 := link.Connect(eng, sw, 1, r.h1, 0, link.Params{})
	l2 := link.Connect(eng, sw, 2, r.h2, 0, link.Params{})
	sw.AttachPort(1, l1)
	sw.AttachPort(2, l2)
	r.h1.ep = l1.From(r.h1)
	r.h2.ep = l2.From(r.h2)
	ctrlSide, swSide := openflow.SimPipe(eng, 0)
	ctrlSide.SetHandler(func(m openflow.Message) { r.ctrlGot = append(r.ctrlGot, m) })
	r.ctrl = ctrlSide
	sw.ConnectController(swSide)
	return r
}

func (r *rig) run(t *testing.T, d time.Duration) {
	t.Helper()
	if err := r.eng.Run(d); err != nil {
		t.Fatal(err)
	}
}

func (r *rig) lastType(typ openflow.MsgType) openflow.Message {
	for i := len(r.ctrlGot) - 1; i >= 0; i-- {
		if r.ctrlGot[i].Type() == typ {
			return r.ctrlGot[i]
		}
	}
	return nil
}

func testPacket() *netpkt.Packet {
	return netpkt.NewTCP(netpkt.MACFromUint64(1), netpkt.MACFromUint64(2),
		netpkt.IP(10, 0, 0, 1), netpkt.IP(10, 0, 0, 2), 1234, 80, []byte("hello"))
}

func TestHandshake(t *testing.T) {
	r := newRig(t)
	r.run(t, time.Millisecond)
	if r.lastType(openflow.TypeHello) == nil {
		t.Fatal("switch did not send HELLO")
	}
	r.ctrl.Send(&openflow.FeaturesRequest{XID: 5})
	r.run(t, 2*time.Millisecond)
	fr, _ := r.lastType(openflow.TypeFeaturesReply).(*openflow.FeaturesReply)
	if fr == nil || fr.DPID != 7 || len(fr.Ports) != 2 || fr.XID != 5 {
		t.Fatalf("FeaturesReply = %+v", fr)
	}
}

func TestEcho(t *testing.T) {
	r := newRig(t)
	r.ctrl.Send(&openflow.EchoRequest{XID: 3, Data: []byte("x")})
	r.run(t, time.Millisecond)
	er, _ := r.lastType(openflow.TypeEchoReply).(*openflow.EchoReply)
	if er == nil || er.XID != 3 || string(er.Data) != "x" {
		t.Fatalf("EchoReply = %+v", er)
	}
}

func TestTableMissRaisesPacketIn(t *testing.T) {
	r := newRig(t)
	pkt := testPacket()
	r.eng.Schedule(0, func() { r.h1.ep.Send(pkt) })
	r.run(t, time.Second)
	pi, _ := r.lastType(openflow.TypePacketIn).(*openflow.PacketIn)
	if pi == nil {
		t.Fatal("no PACKET_IN on table miss")
	}
	if pi.InPort != 1 || pi.Reason != openflow.ReasonNoMatch {
		t.Fatalf("PacketIn = %+v", pi)
	}
	inner, err := netpkt.Unmarshal(pi.Data)
	if err != nil || inner.TCP == nil || inner.TCP.DstPort != 80 {
		t.Fatalf("PacketIn frame mangled: %v %v", inner, err)
	}
	if len(r.h2.got) != 0 {
		t.Fatal("packet forwarded without a flow entry")
	}
	if r.sw.TableMisses != 1 {
		t.Fatalf("TableMisses = %d", r.sw.TableMisses)
	}
}

func TestFlowModThenForward(t *testing.T) {
	r := newRig(t)
	pkt := testPacket()
	key := flow.KeyOf(1, pkt)
	r.ctrl.Send(&openflow.FlowMod{
		Match: flow.ExactMatch(key), Command: openflow.FlowAdd,
		Priority: 10, Actions: openflow.Output(2),
	})
	r.eng.Schedule(time.Millisecond, func() { r.h1.ep.Send(pkt) })
	r.run(t, time.Second)
	if len(r.h2.got) != 1 {
		t.Fatalf("h2 got %d packets, want 1", len(r.h2.got))
	}
	if r.sw.PacketInsSent != 0 {
		t.Fatal("unexpected packet-in after flow installed")
	}
	// Counters updated.
	e, _ := r.sw.Table().Lookup(key)
	if e.Packets != 1 || e.Bytes == 0 {
		t.Fatalf("entry counters: %+v", e)
	}
}

func TestPacketOutWithBuffer(t *testing.T) {
	r := newRig(t)
	pkt := testPacket()
	pkt.BulkLen = 1400
	r.eng.Schedule(0, func() { r.h1.ep.Send(pkt) })
	r.run(t, 10*time.Millisecond)
	pi := r.lastType(openflow.TypePacketIn).(*openflow.PacketIn)
	if pi.BufferID == openflow.NoBuffer {
		t.Fatal("expected buffered packet-in")
	}
	r.ctrl.Send(&openflow.PacketOut{BufferID: pi.BufferID, InPort: pi.InPort, Actions: openflow.Output(2)})
	r.run(t, 20*time.Millisecond)
	if len(r.h2.got) != 1 {
		t.Fatalf("h2 got %d packets", len(r.h2.got))
	}
	// Buffered path must preserve the simulated bulk length.
	if r.h2.got[0].BulkLen != 1400 {
		t.Fatalf("BulkLen lost through buffer: %d", r.h2.got[0].BulkLen)
	}
}

func TestPacketOutUnbuffered(t *testing.T) {
	r := newRig(t)
	pkt := testPacket()
	r.ctrl.Send(&openflow.PacketOut{
		BufferID: openflow.NoBuffer, InPort: openflow.PortNone,
		Actions: openflow.Output(1), Data: pkt.Marshal(),
	})
	r.run(t, 10*time.Millisecond)
	if len(r.h1.got) != 1 {
		t.Fatalf("h1 got %d packets", len(r.h1.got))
	}
}

func TestFlood(t *testing.T) {
	r := newRig(t)
	pkt := testPacket()
	r.ctrl.Send(&openflow.FlowMod{
		Match: flow.MatchAll(), Command: openflow.FlowAdd, Priority: 1,
		Actions: openflow.Output(openflow.PortFlood),
	})
	r.eng.Schedule(time.Millisecond, func() { r.h1.ep.Send(pkt) })
	r.run(t, time.Second)
	if len(r.h1.got) != 0 {
		t.Fatal("flood echoed to ingress port")
	}
	if len(r.h2.got) != 1 {
		t.Fatalf("h2 got %d", len(r.h2.got))
	}
}

func TestSetDLDstRewrite(t *testing.T) {
	r := newRig(t)
	pkt := testPacket()
	seMAC := netpkt.MACFromUint64(0xee)
	key := flow.KeyOf(1, pkt)
	r.ctrl.Send(&openflow.FlowMod{
		Match: flow.ExactMatch(key), Command: openflow.FlowAdd, Priority: 10,
		Actions: []openflow.Action{openflow.ActionSetDLDst{MAC: seMAC}, openflow.ActionOutput{Port: 2}},
	})
	r.eng.Schedule(time.Millisecond, func() { r.h1.ep.Send(pkt) })
	r.run(t, time.Second)
	if len(r.h2.got) != 1 || r.h2.got[0].EthDst != seMAC {
		t.Fatalf("rewrite failed: %+v", r.h2.got)
	}
	// The original packet must not have been mutated in place.
	if pkt.EthDst == seMAC {
		t.Fatal("action mutated shared packet")
	}
}

func TestDropRule(t *testing.T) {
	r := newRig(t)
	pkt := testPacket()
	r.ctrl.Send(&openflow.FlowMod{
		Match: flow.MatchAll(), Command: openflow.FlowAdd, Priority: 100,
		Actions: openflow.Drop(),
	})
	r.eng.Schedule(time.Millisecond, func() { r.h1.ep.Send(pkt) })
	r.run(t, time.Second)
	if len(r.h2.got) != 0 {
		t.Fatal("drop rule did not drop")
	}
	if r.sw.PacketInsSent != 0 {
		t.Fatal("drop rule raised packet-in")
	}
}

func TestFlowRemovedOnIdleTimeout(t *testing.T) {
	r := newRig(t)
	r.ctrl.Send(&openflow.FlowMod{
		Match: flow.MatchAll(), Command: openflow.FlowAdd, Priority: 1,
		IdleTimeout: 1, NotifyDel: true, Actions: openflow.Output(2),
	})
	r.run(t, 3*time.Second)
	fr, _ := r.lastType(openflow.TypeFlowRemoved).(*openflow.FlowRemoved)
	if fr == nil || fr.Reason != openflow.RemovedIdleTimeout {
		t.Fatalf("FlowRemoved = %+v", fr)
	}
	if r.sw.Table().Len() != 0 {
		t.Fatal("entry still installed")
	}
	r.sw.Shutdown()
}

func TestFlowDeleteSendsNotify(t *testing.T) {
	r := newRig(t)
	r.ctrl.Send(&openflow.FlowMod{
		Match: flow.MatchAll(), Command: openflow.FlowAdd, Priority: 1,
		NotifyDel: true, Actions: openflow.Output(2),
	})
	r.ctrl.Send(&openflow.FlowMod{Match: flow.MatchAll(), Command: openflow.FlowDelete})
	r.run(t, time.Millisecond)
	fr, _ := r.lastType(openflow.TypeFlowRemoved).(*openflow.FlowRemoved)
	if fr == nil || fr.Reason != openflow.RemovedDelete {
		t.Fatalf("FlowRemoved = %+v", fr)
	}
}

func TestPortStats(t *testing.T) {
	r := newRig(t)
	key := flow.KeyOf(1, testPacket())
	r.ctrl.Send(&openflow.FlowMod{
		Match: flow.ExactMatch(key), Command: openflow.FlowAdd, Priority: 1,
		Actions: openflow.Output(2),
	})
	r.eng.Schedule(time.Millisecond, func() {
		r.h1.ep.Send(testPacket())
		r.h1.ep.Send(testPacket())
	})
	r.eng.Schedule(10*time.Millisecond, func() {
		r.ctrl.Send(&openflow.StatsRequest{XID: 9, Kind: openflow.StatsPort})
	})
	r.run(t, time.Second)
	sr, _ := r.lastType(openflow.TypeStatsReply).(*openflow.StatsReply)
	if sr == nil || len(sr.Ports) != 2 {
		t.Fatalf("StatsReply = %+v", sr)
	}
	var rx1, tx2 uint64
	for _, p := range sr.Ports {
		if p.PortNo == 1 {
			rx1 = p.RxPackets
		}
		if p.PortNo == 2 {
			tx2 = p.TxPackets
		}
	}
	if rx1 != 2 || tx2 != 2 {
		t.Fatalf("rx1=%d tx2=%d, want 2/2", rx1, tx2)
	}
}

func TestFlowStats(t *testing.T) {
	r := newRig(t)
	key := flow.KeyOf(1, testPacket())
	r.ctrl.Send(&openflow.FlowMod{
		Match: flow.ExactMatch(key), Command: openflow.FlowAdd, Priority: 1,
		Cookie: 42, Actions: openflow.Output(2),
	})
	r.eng.Schedule(time.Millisecond, func() { r.h1.ep.Send(testPacket()) })
	r.eng.Schedule(10*time.Millisecond, func() {
		r.ctrl.Send(&openflow.StatsRequest{XID: 1, Kind: openflow.StatsFlow, Match: flow.MatchAll()})
	})
	r.run(t, time.Second)
	sr, _ := r.lastType(openflow.TypeStatsReply).(*openflow.StatsReply)
	if sr == nil || len(sr.Flows) != 1 || sr.Flows[0].Cookie != 42 || sr.Flows[0].Packets != 1 {
		t.Fatalf("flow stats = %+v", sr)
	}
}

func TestBarrier(t *testing.T) {
	r := newRig(t)
	r.ctrl.Send(&openflow.BarrierRequest{XID: 77})
	r.run(t, time.Millisecond)
	br, _ := r.lastType(openflow.TypeBarrierReply).(*openflow.BarrierReply)
	if br == nil || br.XID != 77 {
		t.Fatalf("BarrierReply = %+v", br)
	}
}

func TestProcessingDelayByKind(t *testing.T) {
	eng := sim.NewEngine(1)
	ovs := New(eng, Config{DPID: 1, Kind: KindOvS})
	wifi := New(eng, Config{DPID: 2, Kind: KindWiFi})
	if ovs.proc >= wifi.proc {
		t.Fatalf("OvS delay %v should be below Wi-Fi delay %v", ovs.proc, wifi.proc)
	}
}

func TestFlowTableCapacityRejects(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := New(eng, Config{DPID: 9, Name: "tiny", Kind: KindOvS, MaxEntries: 2})
	ctrlSide, swSide := openflow.SimPipe(eng, 0)
	var errs []*openflow.ErrorMsg
	ctrlSide.SetHandler(func(m openflow.Message) {
		if e, ok := m.(*openflow.ErrorMsg); ok {
			errs = append(errs, e)
		}
	})
	sw.ConnectController(swSide)
	defer sw.Shutdown()
	add := func(port uint16) {
		k := exactKey(port)
		ctrlSide.Send(&openflow.FlowMod{Match: flow.ExactMatch(k), Command: openflow.FlowAdd,
			Priority: 10, Actions: openflow.Output(1)})
	}
	add(1)
	add(2)
	add(3) // must be rejected
	if err := eng.Run(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if sw.Table().Len() != 2 {
		t.Fatalf("table len = %d, want 2", sw.Table().Len())
	}
	if len(errs) != 1 || errs[0].Code != openflow.ErrTableFull {
		t.Fatalf("errors = %+v", errs)
	}
	if sw.TableFullRejects != 1 {
		t.Fatalf("rejects = %d", sw.TableFullRejects)
	}
	// Overwriting an existing entry still works on a full table.
	add(2)
	// Deleting frees room for a new entry.
	ctrlSide.Send(&openflow.FlowMod{Match: flow.ExactMatch(exactKey(1)), Command: openflow.FlowDeleteStrict, Priority: 10})
	add(3)
	if err := eng.Run(2 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if sw.Table().Len() != 2 || len(errs) != 1 {
		t.Fatalf("after churn: len=%d errs=%d", sw.Table().Len(), len(errs))
	}
}

// A catch-all entry does not open a full table to every add: only an add
// that cannot grow the table is admitted once MaxEntries is reached.
func TestFlowTableCapacityUnderCatchAll(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := New(eng, Config{DPID: 9, Name: "tiny", Kind: KindOvS, MaxEntries: 2})
	ctrlSide, swSide := openflow.SimPipe(eng, 0)
	full := 0
	ctrlSide.SetHandler(func(m openflow.Message) {
		if e, ok := m.(*openflow.ErrorMsg); ok && e.Code == openflow.ErrTableFull {
			full++
		}
	})
	sw.ConnectController(swSide)
	defer sw.Shutdown()
	add := func(m flow.Match, priority uint16) {
		ctrlSide.Send(&openflow.FlowMod{Match: m, Command: openflow.FlowAdd, Priority: priority, Actions: openflow.Output(1)})
	}
	add(flow.MatchAll(), 1)
	for port := uint16(1); port <= 5; port++ {
		add(flow.ExactMatch(exactKey(port)), 10)
	}
	if err := eng.Run(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if sw.Table().Len() != 2 || full != 4 || sw.TableFullRejects != 4 {
		t.Fatalf("table len %d, %d table-full replies, %d rejects; want 2, 4, 4", sw.Table().Len(), full, sw.TableFullRejects)
	}
	// Replacing the catch-all is admitted; the same match at another
	// priority would be a third entry and is not.
	add(flow.MatchAll(), 1)
	add(flow.MatchAll(), 2)
	if err := eng.Run(2 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if sw.Table().Len() != 2 || full != 5 {
		t.Fatalf("after the wildcard adds: table len %d, %d table-full replies; want 2, 5", sw.Table().Len(), full)
	}
}

// OFPST_PORT replies and Ports() list ports in ascending order, the same
// on every request, whatever order the ports were attached in.
func TestPortOrderAscending(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := New(eng, Config{DPID: 3, Name: "ovs3", Kind: KindOvS})
	for _, no := range []uint32{6, 2, 5, 1, 4, 3} {
		sw.AttachPort(no, link.Connect(eng, sw, no, &endpoint{}, 0, link.Params{}))
	}
	ctrlSide, swSide := openflow.SimPipe(eng, 0)
	var replies [][]uint32
	ctrlSide.SetHandler(func(m openflow.Message) {
		if sr, ok := m.(*openflow.StatsReply); ok {
			var ports []uint32
			for _, p := range sr.Ports {
				ports = append(ports, p.PortNo)
			}
			replies = append(replies, ports)
		}
	})
	sw.ConnectController(swSide)
	defer sw.Shutdown()
	ctrlSide.Send(&openflow.StatsRequest{XID: 1, Kind: openflow.StatsPort})
	ctrlSide.Send(&openflow.StatsRequest{XID: 2, Kind: openflow.StatsPort})
	if err := eng.Run(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	want := []uint32{1, 2, 3, 4, 5, 6}
	if len(replies) != 2 || !slices.Equal(replies[0], want) || !slices.Equal(replies[1], want) {
		t.Fatalf("port-stats replies list ports %v, want %v twice", replies, want)
	}
	ports := sw.Ports()
	if !slices.Equal(ports, want) {
		t.Fatalf("Ports() = %v, want %v", ports, want)
	}
	ports[0] = 99 // a copy: the switch's own order is untouched
	if got := sw.Ports(); !slices.Equal(got, want) {
		t.Fatalf("Ports() after the caller wrote its copy = %v", got)
	}
}

// Past bufferCap unreleased packet-ins the switch buffers no more until
// the slot the next ID falls on is bufferAge old; then it overwrites
// that slot, and a packet-out naming the overwritten ID gets an error,
// never the packet now buffered there.
func TestPacketBufferRingOverwrites(t *testing.T) {
	r := newRig(t)
	send := func(port uint16) *openflow.PacketIn {
		pkt := netpkt.NewTCP(netpkt.MACFromUint64(1), netpkt.MACFromUint64(2),
			netpkt.IP(10, 0, 0, 1), netpkt.IP(10, 0, 0, 2), port, 80, []byte("hello"))
		r.eng.Schedule(0, func() { r.h1.ep.Send(pkt) })
		r.run(t, r.eng.Now()+time.Millisecond)
		return r.lastType(openflow.TypePacketIn).(*openflow.PacketIn)
	}
	for i := 0; i < bufferCap; i++ {
		if pi := send(uint16(1000 + i)); pi.BufferID == openflow.NoBuffer {
			t.Fatalf("packet-in %d not buffered", i)
		}
	}
	if pi := send(999); pi.BufferID != openflow.NoBuffer {
		t.Fatalf("packet-in past %d unreleased ones buffered as %d", bufferCap, pi.BufferID)
	}
	r.run(t, r.eng.Now()+bufferAge)
	fresh := send(4242)
	if fresh.BufferID == openflow.NoBuffer {
		t.Fatalf("no packet-in buffered after %v", bufferAge)
	}
	stale := fresh.BufferID - bufferCap
	errors := 0
	r.ctrl.SetHandler(func(m openflow.Message) {
		if e, ok := m.(*openflow.ErrorMsg); ok && e.Code == openflow.ErrBadRequest {
			errors++
		}
	})
	r.ctrl.Send(&openflow.PacketOut{BufferID: stale, Actions: openflow.Output(2)})
	r.run(t, r.eng.Now()+time.Millisecond)
	if errors != 1 || len(r.h2.got) != 0 {
		t.Fatalf("packet-out of overwritten buffer %d: %d errors, %d packets sent; want 1, 0", stale, errors, len(r.h2.got))
	}
	r.ctrl.Send(&openflow.PacketOut{BufferID: fresh.BufferID, Actions: openflow.Output(2)})
	r.ctrl.Send(&openflow.PacketOut{BufferID: fresh.BufferID, Actions: openflow.Output(2)})
	r.run(t, r.eng.Now()+time.Millisecond)
	if errors != 2 || len(r.h2.got) != 1 || r.h2.got[0].TCP.SrcPort != 4242 {
		t.Fatalf("packet-out of buffer %d, twice: %d errors, %d packets sent; want its packet once, then an error", fresh.BufferID, errors, len(r.h2.got))
	}
}
