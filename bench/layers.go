package main

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"livesec/internal/dataplane"
	"livesec/internal/flow"
	"livesec/internal/host"
	"livesec/internal/ids"
	"livesec/internal/l7"
	"livesec/internal/link"
	"livesec/internal/loadbalance"
	"livesec/internal/monitor"
	"livesec/internal/netpkt"
	"livesec/internal/openflow"
	"livesec/internal/policy"
	"livesec/internal/seproto"
	"livesec/internal/sim"
)

// replaySetup is one first packet as the controller receives it.
type replaySetup struct {
	dpid uint64
	pi   *openflow.PacketIn
}

// replayInputs is what a workload hands the traced run: the inputs it
// gave the program, regenerated from the seed, and the sizes the timed
// run observed, so each layer is exercised in the state it was in.
type replayInputs struct {
	seed      int64
	topo      []topoSwitch
	policy    func() (*policy.Table, error)
	setups    func(n int) []replaySetup // the workload's next n first packets
	payloads  [][]byte                  // what the inspectors look at
	tableMax  int                       // entries in the fullest flow table
	heapDepth int                       // deepest the simulator's event queue got
	calls     replayCalls
}

// replayCalls is how many times a replay loop calls into its layer:
// enough that each loop runs for tens of milliseconds, few enough that
// the whole traced run adds a few seconds.
type replayCalls struct {
	ns int // for calls that cost well under a microsecond
	us int // for calls that cost microseconds or more
}

var fullReplay = replayCalls{ns: 20000, us: 2000}

// storeCap is how many events monitor.NewStore(0) keeps.
const storeCap = 65536

// sink is a link.Node that counts what reaches it.
type sink struct{ n int }

func (s *sink) Receive(uint32, *netpkt.Packet) { s.n++ }

// measureLayers replays the workload's inputs through each layer's
// exported functions, from outside, and returns each unit cost by
// metric name. Costs of calls that run simulator events are net of the
// bare engine's cost for those events, so that engine, link, data plane
// and host shares do not overlap.
func measureLayers(in replayInputs, tr *tracer) (map[string]float64, error) {
	m := make(map[string]float64)
	nsCalls, usCalls := in.calls.ns, in.calls.us

	// internal/sim: schedule and pop no-op events, with as many events
	// queued as the timed run had at its deepest, and with none queued,
	// which is the state of the small replay engines below.
	bare := func(depth int) float64 {
		eng := sim.NewEngine(in.seed)
		nop := func() {}
		for i := 0; i < depth; i++ {
			eng.Schedule(time.Hour, nop)
		}
		events := 50 * nsCalls
		t0 := time.Now()
		for i := 0; i < events; i++ {
			eng.Schedule(time.Microsecond, nop)
			_ = eng.Run(eng.Now() + time.Microsecond)
		}
		return float64(time.Since(t0)) / float64(events)
	}
	m["sim.ns_per_event"] = bare(in.heapDepth)
	shallow := bare(0)
	// netOf measures fn like tracer.measure and subtracts the engine's
	// share of the events it ran.
	netOf := func(name string, e *sim.Engine, n int, fn func(i int)) float64 {
		before := e.Processed
		unit := tr.measure(name, n, fn)
		events := float64(e.Processed-before) / float64(n+min(n, traceSample))
		return max(unit-events*shallow, 0)
	}

	// The workload's first packets, as frames and as parsed packets.
	setups := in.setups(nsCalls)
	frames := make([][]byte, len(setups))
	for i, s := range setups {
		frames[i] = openflow.Encode(s.pi)
	}
	m["openflow.decode_ns"] = tr.measure("openflow.decode", nsCalls, func(i int) {
		if _, err := openflow.Decode(frames[i%len(frames)]); err != nil {
			panic(err)
		}
	})
	m["netpkt.unmarshal_ns"] = tr.measure("netpkt.unmarshal", nsCalls, func(i int) {
		if _, err := netpkt.Unmarshal(setups[i%len(setups)].pi.Data); err != nil {
			panic(err)
		}
	})

	// internal/core, with its callees replayed beside it.
	if err := measureCore(in, tr, m); err != nil {
		return nil, err
	}

	// internal/openflow transports.
	rtt, err := netconnRTT(frames[0], in, tr)
	if err != nil {
		return nil, err
	}
	m["openflow.netconn_rtt_us"] = rtt / 1e3
	pipeEng := sim.NewEngine(in.seed)
	a, b := openflow.SimPipe(pipeEng, 0)
	got := 0
	b.SetHandler(func(openflow.Message) { got++ })
	m["openflow.simpipe_ns_per_msg"] = netOf("openflow.simpipe", pipeEng, nsCalls, func(i int) {
		a.Send(setups[i%len(setups)].pi)
		_ = pipeEng.RunAll(1 << 20)
	})
	if got == 0 {
		return nil, fmt.Errorf("SimPipe delivered nothing")
	}

	// internal/policy over the workload's keys and table.
	pt, err := in.policy()
	if err != nil {
		return nil, err
	}
	keys := make([]flow.Key, len(setups))
	for i, s := range setups {
		pkt, err := netpkt.Unmarshal(s.pi.Data)
		if err != nil {
			return nil, err
		}
		keys[i] = flow.KeyOf(s.pi.InPort, pkt)
	}
	m["policy.rules"] = float64(pt.Len())
	m["policy.lookup_ns"] = tr.measure("policy.lookup", usCalls, func(i int) { pt.Lookup(keys[i%len(keys)]) })

	// internal/loadbalance over the campus's element classes.
	bal := loadbalance.New(loadbalance.LeastLoad, loadbalance.FlowGrain, in.seed)
	var cands [2][]loadbalance.Candidate
	for ci, n := range [2]int{160, 40} {
		for i := 0; i < n; i++ {
			cands[ci] = append(cands[ci], loadbalance.Candidate{ID: uint64(i + 1), Load: uint64(i * 7 % n), Capacity: 500_000_000})
		}
	}
	m["loadbalance.pick_ns"] = tr.measure("loadbalance.pick", nsCalls, func(i int) {
		if _, ok := bal.Pick(cands[i%2], keys[i%len(keys)]); !ok {
			panic("loadbalance: no pick")
		}
	})

	// internal/monitor: a record into a store with room, and into one
	// already holding all it keeps, which then shifts every held event.
	store := monitor.NewStore(0)
	m["monitor.record_cold_ns"] = tr.measure("monitor.record_cold", nsCalls, func(i int) { store.Record(fillerEvent(i)) })
	for i := store.Len(); i < storeCap; i++ {
		store.Record(fillerEvent(i))
	}
	m["monitor.record_ns"] = tr.measure("monitor.record", usCalls/2, func(i int) { store.Record(fillerEvent(i)) })

	// internal/link: one packet across one link between stub nodes.
	seg := netpkt.NewTCP(netpkt.MACFromUint64(1), netpkt.MACFromUint64(2), netpkt.IP(10, 1, 0, 1), netpkt.IP(10, 1, 0, 2), 40000, 80, in.payloads[0])
	seg.BulkLen = tcpBulk
	linkEng := sim.NewEngine(in.seed)
	na, nb := &sink{}, &sink{}
	ep := link.Connect(linkEng, na, 0, nb, 0, link.Params{BitsPerSec: link.Rate1G}).From(na)
	m["link.ns_per_pkt"] = netOf("link.send", linkEng, nsCalls, func(int) {
		ep.Send(seg)
		_ = linkEng.RunAll(1 << 20)
	})
	if nb.n == 0 {
		return nil, fmt.Errorf("link delivered nothing")
	}

	// internal/dataplane: a packet through a switch whose table is as
	// full as the fullest one was, with and without a matching entry.
	if err := measureDataplane(in, seg, netOf, m); err != nil {
		return nil, err
	}

	// internal/ids and internal/l7 over the payload mix.
	pkts := make([]*netpkt.Packet, len(in.payloads))
	for i, p := range in.payloads {
		pkts[i] = netpkt.NewTCP(seg.EthSrc, seg.EthDst, seg.IP.Src, seg.IP.Dst, uint16(40000+i), 80, p)
	}
	idsEng := ids.MustEngine(ids.CommunityRules)
	m["ids.inspect_ns"] = tr.measure("ids.inspect", nsCalls, func(i int) { idsEng.Inspect(pkts[i%len(pkts)]) })
	cls := l7.NewClassifier()
	m["l7.classify_ns"] = tr.measure("l7.classify", nsCalls, func(i int) { cls.Classify(pkts[i%len(pkts)]) })

	// internal/host: send on one host, receive and dispatch on another,
	// net of the link between them.
	hostEng := sim.NewEngine(in.seed)
	ha := host.New(hostEng, "a", seg.EthSrc, seg.IP.Src)
	hb := host.New(hostEng, "b", seg.EthDst, seg.IP.Dst)
	hl := link.Connect(hostEng, ha, 0, hb, 0, link.Params{BitsPerSec: link.Rate1G})
	ha.Attach(hl)
	hb.Attach(hl)
	ha.Learn(hb.IP, hb.MAC)
	recvd := 0
	hb.HandleTCP(80, func(*netpkt.Packet) { recvd++ })
	both := netOf("host.send_receive", hostEng, nsCalls, func(int) {
		ha.SendTCP(hb.IP, 40000, 80, in.payloads[0], tcpBulk)
		_ = hostEng.RunAll(1 << 20)
	})
	if recvd == 0 {
		return nil, fmt.Errorf("host delivered nothing")
	}
	// Two host packets (one sent, one received) per link crossing.
	m["host.ns_per_pkt"] = max(both-m["link.ns_per_pkt"], 0) / 2

	// internal/seproto: a heartbeat and an event report, built and parsed.
	online := &seproto.Online{SEID: 7, Service: seproto.ServiceIDS, CapacityBps: 500_000_000}
	event := &seproto.Event{SEID: 7, Class: seproto.EventProtocol, Flow: keys[0], Detail: "http"}
	m["seproto.codec_ns"] = tr.measure("seproto.codec", nsCalls, func(i int) {
		b := seproto.MarshalOnline(online)
		if i%2 == 1 {
			b = seproto.MarshalEvent(event)
		}
		if _, err := seproto.Parse(b); err != nil {
			panic(err)
		}
	})
	return m, nil
}

// measureCore feeds the workload's first packets to an in-process
// controller and, beside each setup, replays the calls the bench cannot
// bracket because they happen inside core: the frame parse, the policy
// lookup when the decision cache missed, and one monitor record per
// event the setup produced. The controller's event store has room
// throughout, so core's figures do not carry the store's cost at
// capacity, which is 1,000 times a setup's own; that is monitor's row.
func measureCore(in replayInputs, tr *tracer, m map[string]float64) error {
	nsCalls, usCalls := in.calls.ns, in.calls.us
	build := func(withObs bool) (*coreRig, error) {
		pt, err := in.policy()
		if err != nil {
			return nil, err
		}
		return newCoreRig(in.seed, in.topo, pt, withObs)
	}
	rig, err := build(false)
	if err != nil {
		return err
	}
	obsRig, err := build(true)
	if err != nil {
		return err
	}
	warm, allocCalls := usCalls/4, usCalls/8
	setups := in.setups(warm + usCalls + allocCalls + 1 + traceSample)
	next := 0
	take := func() replaySetup { next++; return setups[next-1] }
	for i := 0; i < warm; i++ { // the caches the workload's repeats hit are warm in the timed run
		s := take()
		rig.handlerOf(s.dpid)(s.pi)
		obsRig.handlerOf(s.dpid)(s.pi)
	}

	// Untraced loop: each setup goes to the plain controller and to the
	// one with the observability hooks, turn about, so that drift in the
	// host's speed falls on both alike.
	st0, ev0 := rig.ctrl.Stats(), rig.store.TotalRecorded()
	var plainNS, obsNS, chainNS, directNS time.Duration
	var chains, directs int
	for i := 0; i < usCalls; i++ {
		s := take()
		before := rig.ctrl.Stats().FlowsChained
		t0 := time.Now()
		rig.handlerOf(s.dpid)(s.pi)
		t1 := time.Now()
		obsRig.handlerOf(s.dpid)(s.pi)
		t2 := time.Now()
		plainNS, obsNS = plainNS+t1.Sub(t0), obsNS+t2.Sub(t1)
		if rig.ctrl.Stats().FlowsChained != before {
			chainNS, chains = chainNS+t1.Sub(t0), chains+1
		} else {
			directNS, directs = directNS+t1.Sub(t0), directs+1
		}
	}
	st1, ev1 := rig.ctrl.Stats(), rig.store.TotalRecorded()
	done := (st1.FlowsRouted + st1.FlowsChained) - (st0.FlowsRouted + st0.FlowsChained)
	if done != uint64(usCalls) {
		return fmt.Errorf("replay controller completed %d of %d setups", done, usCalls)
	}
	m["core.setup_ns"] = float64(plainNS) / float64(usCalls)
	m["obs.setup_overhead_ns"] = float64(obsNS-plainNS) / float64(usCalls)
	if chains > 0 {
		m["core.setup_chain_ns"] = float64(chainNS) / float64(chains)
	}
	if directs > 0 {
		m["core.setup_direct_ns"] = float64(directNS) / float64(directs)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < allocCalls; i++ {
		s := take()
		rig.handlerOf(s.dpid)(s.pi)
	}
	runtime.ReadMemStats(&ms1)
	m["core.setup_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(allocCalls)
	m["core.decision_hit_ratio"] = hitRatio(st1.DecisionCacheHits-st0.DecisionCacheHits, st1.DecisionCacheMisses-st0.DecisionCacheMisses)
	m["core.plan_hit_ratio"] = hitRatio(st1.PlanCacheHits-st0.PlanCacheHits, st1.PlanCacheMisses-st0.PlanCacheMisses)
	m["monitor.events_per_setup"] = float64(ev1-ev0) / float64(usCalls)

	// One setup's reply, captured, for the encoder.
	rig.keep = true
	s := take()
	rig.handlerOf(s.dpid)(s.pi)
	rig.keep = false
	reply := append([]openflow.Message(nil), rig.sent...)
	if len(reply) == 0 {
		return fmt.Errorf("replay controller sent nothing for a setup")
	}
	var buf []byte
	m["openflow.encode_ns"] = tr.measure("openflow.encode", nsCalls, func(int) {
		buf = buf[:0]
		for _, msg := range reply {
			buf = openflow.MarshalAppend(buf, msg)
		}
	})

	// Traced loop: a root span per setup, the handler call under it, and
	// the replayed callees as its siblings.
	side := monitor.NewStore(0)
	pt, err := in.policy()
	if err != nil {
		return err
	}
	for i := 0; i < traceSample; i++ {
		s := take()
		before, evBefore := rig.ctrl.Stats(), rig.store.TotalRecorded()
		root := tr.begin("setup", -1, i)
		id := tr.begin("core.setup", root, i)
		rig.handlerOf(s.dpid)(s.pi)
		tr.end(id)
		id = tr.begin("netpkt.unmarshal", root, i)
		pkt, err := netpkt.Unmarshal(s.pi.Data)
		tr.end(id)
		if err != nil {
			return err
		}
		if rig.ctrl.Stats().DecisionCacheMisses != before.DecisionCacheMisses {
			key := flow.KeyOf(s.pi.InPort, pkt)
			id = tr.begin("policy.lookup", root, i)
			pt.Lookup(key)
			tr.end(id)
		}
		for e := evBefore; e < rig.store.TotalRecorded(); e++ {
			id = tr.begin("monitor.record", root, i)
			side.Record(fillerEvent(int(e)))
			tr.end(id)
		}
		tr.end(root)
	}

	return nil
}

// hitRatio is hits ÷ lookups, 0 when there were none.
func hitRatio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// netconnRTT times a packet-in-sized frame answered by the reply batch
// between two NewNetConn ends on loopback TCP, in ns per round trip.
func netconnRTT(frame []byte, in replayInputs, tr *tracer) (float64, error) {
	pi, err := openflow.Decode(frame)
	if err != nil {
		return 0, err
	}
	fm := &openflow.FlowMod{Match: flow.ExactMatch(flow.Key{InPort: 1, SrcPort: 40000, DstPort: 80}),
		Command: openflow.FlowAdd, Priority: prioForward, IdleTimeout: 30, Actions: openflow.Output(uplinkPort)}
	reply := []openflow.Message{fm, fm, fm, fm, &openflow.PacketOut{BufferID: 1, InPort: 1, Actions: openflow.Output(uplinkPort)}}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	cc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	sc, ok := <-accepted
	if !ok {
		cc.Close()
		return 0, fmt.Errorf("loopback accept failed")
	}
	client, server := openflow.NewNetConn(cc), openflow.NewNetConn(sc)
	defer client.Close()
	defer server.Close()
	server.SetHandler(func(openflow.Message) { openflow.SendAll(server, reply...) })
	answered := make(chan struct{}, 1)
	client.SetHandler(func(m openflow.Message) {
		if _, last := m.(*openflow.PacketOut); last {
			answered <- struct{}{}
		}
	})
	var lost bool
	unit := tr.measure("openflow.netconn_rtt", in.calls.us/2, func(int) {
		client.Send(pi)
		select {
		case <-answered:
		case <-time.After(setupTimeout):
			lost = true
		}
	})
	if lost {
		return 0, fmt.Errorf("loopback round trip lost a reply")
	}
	return unit, nil
}

// measureDataplane times dataplane.Switch.Receive with the matching
// entry installed and absent, in a table as full as the fullest was.
func measureDataplane(in replayInputs, seg *netpkt.Packet, netOf func(string, *sim.Engine, int, func(int)) float64, m map[string]float64) error {
	nsCalls, usCalls := in.calls.ns, in.calls.us
	eng := sim.NewEngine(in.seed)
	sw := dataplane.New(eng, dataplane.Config{DPID: 1, Name: "bench", Kind: dataplane.KindOvS})
	src, dst := &sink{}, &sink{}
	sw.AttachPort(1, link.Connect(eng, sw, 1, src, 0, link.Params{BitsPerSec: link.Rate1G}))
	sw.AttachPort(2, link.Connect(eng, sw, 2, dst, 0, link.Params{BitsPerSec: link.Rate1G}))
	ctrlSide, swSide := openflow.SimPipe(eng, 0)
	packetIns := 0
	ctrlSide.SetHandler(func(msg openflow.Message) {
		if _, ok := msg.(*openflow.PacketIn); ok {
			packetIns++
		}
	})
	sw.ConnectController(swSide)
	sw.Shutdown()      // the expiry sweeper is periodic work, not per-packet work
	const working = 64 // flows the hit loop cycles through
	flows := make([]*netpkt.Packet, working)
	for i := 0; i < max(in.tableMax, working); i++ {
		p := seg
		if i < working {
			p = seg.Clone()
			p.TCP.SrcPort = uint16(40000 + i)
			flows[i] = p
		}
		key := flow.KeyOf(1, p)
		if i >= working {
			key.SrcPort, key.DstPort = uint16(i), uint16(1+i>>16) // filler entries
		}
		ctrlSide.Send(&openflow.FlowMod{Match: flow.ExactMatch(key), Command: openflow.FlowAdd,
			Priority: prioForward, Actions: openflow.Output(2)})
	}
	if err := eng.RunAll(1 << 30); err != nil {
		return err
	}
	if sw.Table().Len() < in.tableMax {
		return fmt.Errorf("replay switch holds %d entries, want %d", sw.Table().Len(), in.tableMax)
	}
	m["dataplane.ns_per_pkt_hit"] = netOf("dataplane.receive_hit", eng, nsCalls, func(i int) {
		sw.Receive(1, flows[i%working])
		_ = eng.RunAll(1 << 20)
	})
	if dst.n == 0 {
		return fmt.Errorf("replay switch forwarded nothing")
	}
	// Source ports no entry matches, so every packet goes to the
	// controller; the secure channel's own cost is openflow's.
	misses := make([]*netpkt.Packet, usCalls)
	for i := range misses {
		misses[i] = seg.Clone()
		misses[i].TCP.SrcPort = uint16(1000 + i)
	}
	miss := netOf("dataplane.receive_miss", eng, usCalls, func(i int) {
		sw.Receive(1, misses[i])
		_ = eng.RunAll(1 << 20)
	})
	if packetIns == 0 {
		return fmt.Errorf("replay switch raised no packet-in")
	}
	m["dataplane.ns_per_pkt_miss"] = max(miss-m["openflow.simpipe_ns_per_msg"], 0)
	return nil
}
