package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"livesec/internal/core"
	"livesec/internal/monitor"
	"livesec/internal/netpkt"
	"livesec/internal/obs"
	"livesec/internal/openflow"
	"livesec/internal/slots/slotstest"
)

// testDaemon is the daemon run() wires, accepting switches on an
// ephemeral loopback port.
type testDaemon struct {
	*daemon
	addr string
}

// startDaemon serves on wrap(listener); a nil wrap serves on the listener
// itself.
func startDaemon(t testing.TB, wrap func(net.Listener) net.Listener) *testDaemon {
	t.Helper()
	return startDaemonLogging(t, io.Discard, wrap)
}

// startDaemonLogging is startDaemon with the daemon's event lines going
// to log.
func startDaemonLogging(t testing.TB, log io.Writer, wrap func(net.Listener) net.Listener) *testDaemon {
	t.Helper()
	d := &testDaemon{daemon: newDaemon(log)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	d.addr = ln.Addr().String()
	if wrap != nil {
		ln = wrap(ln)
	}
	go acceptLoop(ln, d.lk, d.ctrl)
	return d
}

func (d *testDaemon) stats() (st core.Stats) {
	d.lk.do(func() { st = d.ctrl.Stats() })
	return st
}

// waitFor polls cond until it holds; the daemon signals nothing a test
// could block on instead.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// demoPair connects two demo switches and waits until the controller has
// discovered the link between them and learned both hosts, so that a TCP
// packet-in either way is routable.
func demoPair(t testing.TB, d *testDaemon) (a, b *demoSwitch) {
	t.Helper()
	a, err := newDemoSwitch(d.addr, "sw1", 101, netpkt.IP(10, 50, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err = newDemoSwitch(d.addr, "sw2", 102, netpkt.IP(10, 50, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.conn.Close(); b.conn.Close() })
	a.peer, b.peer = b, a
	a.start()
	b.start()
	waitFor(t, "link discovery", func() bool { return d.store.Count(monitor.EventLinkDiscover) >= 2 })
	a.raisePacketIn(netpkt.NewARPRequest(a.hostMAC, a.hostIP, b.hostIP))
	b.raisePacketIn(netpkt.NewARPRequest(b.hostMAC, b.hostIP, a.hostIP))
	waitFor(t, "host learning", func() bool { return d.store.Count(monitor.EventUserJoin) == 2 })
	return a, b
}

func (s *demoSwitch) mods() int { return int(s.flowMods.Load()) }

func (s *demoSwitch) raiseTCP(to *demoSwitch, srcPort uint16) {
	s.raisePacketIn(netpkt.NewTCP(s.hostMAC, to.hostMAC, s.hostIP, to.hostIP, srcPort, 80, []byte("GET /")))
}

// TestDemoOverTCP exercises the full control path on real TCP loopback:
// handshake, LLDP relay, host learning, and end-to-end flow install.
func TestDemoOverTCP(t *testing.T) {
	d := startDaemon(t, nil)
	done := make(chan error, 1)
	go func() { done <- runDemo(d.addr) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("demo timed out")
	}
	st := d.stats()
	if st.FlowsRouted == 0 {
		t.Fatalf("no flow routed over TCP: %+v", st)
	}
	if st.FlowModsSent < 4 {
		t.Fatalf("flow mods = %d, want ≥4 (both switches, both directions)", st.FlowModsSent)
	}
}

// writeLog records every transport write the controller makes, per
// connection in accept order.
type writeLog struct {
	mu        sync.Mutex
	writes    [][][]byte
	n         int    // writes so far
	countOnly bool   // count the writes without keeping them
	pings     uint32 // echo requests drain has sent; only the test goroutine touches it
}

// loggingListener logs the writes on every connection it accepts, each of
// which then takes delay.
type loggingListener struct {
	net.Listener
	log   *writeLog
	delay time.Duration
}

func (l loggingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.log.mu.Lock()
	defer l.log.mu.Unlock()
	l.log.writes = append(l.log.writes, nil)
	return &loggingConn{Conn: c, log: l.log, id: len(l.log.writes) - 1, delay: l.delay}, nil
}

type loggingConn struct {
	net.Conn
	log   *writeLog
	id    int
	delay time.Duration
}

func (c *loggingConn) Write(p []byte) (int, error) {
	c.log.mu.Lock()
	c.log.n++
	if !c.log.countOnly {
		c.log.writes[c.id] = append(c.log.writes[c.id], bytes.Clone(p))
	}
	c.log.mu.Unlock()
	time.Sleep(c.delay)
	return c.Conn.Write(p)
}

// decoded returns the messages of every write so far, per connection and
// write.
func (l *writeLog) decoded(t testing.TB) [][][]openflow.Message {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([][][]openflow.Message, len(l.writes))
	for i, writes := range l.writes {
		for _, w := range writes {
			var ms []openflow.Message
			for len(w) > 0 {
				size := int(binary.BigEndian.Uint16(w[2:4]))
				m, err := openflow.Decode(w[:size])
				if err != nil {
					t.Fatalf("controller wrote an undecodable message: %v", err)
				}
				ms = append(ms, m)
				w = w[size:]
			}
			out[i] = append(out[i], ms)
		}
	}
	return out
}

// drain waits until the daemon has made every write it had queued to the
// switches' connections: each switch pings, and the echo reply queued
// behind those writes shows up in the log.
func (l *writeLog) drain(t testing.TB, sws ...*demoSwitch) {
	l.pings++
	xid := l.pings
	for _, s := range sws {
		s.conn.Send(&openflow.EchoRequest{XID: xid})
	}
	waitFor(t, "the writers to drain", func() bool {
		n := 0
		for _, writes := range l.decoded(t) {
			for _, w := range writes {
				for _, m := range w {
					if r, ok := m.(*openflow.EchoReply); ok && r.XID == xid {
						n++
					}
				}
			}
		}
		return n == len(sws)
	})
}

// setupWrites returns, per connection, how many writes so far carried
// part of a flow setup, and the total numbers of flow-mods and released
// packets (packet-outs that are not LLDP probes).
func (l *writeLog) setupWrites(t testing.TB) (perConn []int, flowMods, released int) {
	for _, writes := range l.decoded(t) {
		n := 0
		for _, w := range writes {
			part := false
			for _, m := range w {
				switch m := m.(type) {
				case *openflow.FlowMod:
					flowMods++
					part = true
				case *openflow.PacketOut:
					if pkt, err := netpkt.Unmarshal(m.Data); err == nil && pkt.LLDP == nil {
						released++
						part = true
					}
				}
			}
			if part {
				n++
			}
		}
		perConn = append(perConn, n)
	}
	return perConn, flowMods, released
}

// A flow setup costs at most one transport write per switch it touches:
// the flow-mods and the released packet leave in one batch each, and the
// writer may carry other batches in the same write.
func TestOneWritePerSwitchPerSetup(t *testing.T) {
	log := &writeLog{}
	d := startDaemon(t, func(ln net.Listener) net.Listener { return loggingListener{Listener: ln, log: log} })
	a, b := demoPair(t, d)
	log.drain(t, a, b)
	before, modsBefore, releasedBefore := log.setupWrites(t)
	a.raiseTCP(b, 40000)
	waitFor(t, "flow-mods on both switches", func() bool { return a.mods() == 2 && b.mods() == 2 })
	log.drain(t, a, b)
	after, modsAfter, releasedAfter := log.setupWrites(t)
	if len(after) != 2 || after[0]-before[0] > 1 || after[1]-before[1] > 1 ||
		modsAfter-modsBefore != 4 || releasedAfter-releasedBefore != 1 {
		t.Fatalf("one setup: setup writes per switch %v → %v carrying %d flow-mods and %d released packets, want at most one more each, 4 and 1",
			before, after, modsAfter-modsBefore, releasedAfter-releasedBefore)
	}
}

// clientPort is the port of a demo flow's client end: the server listens
// on 80.
func clientPort(fm *openflow.FlowMod) uint16 {
	k := fm.Match.Key
	if k.DstPort != 80 {
		return k.DstPort
	}
	return k.SrcPort
}

// While a switch's socket is busy writing, the setups behind it queue and
// leave together: 100 back-to-back setups reach a switch whose every write
// takes 1 ms in fewer than 100 writes, undamaged and in setup order.
func TestSlowWritesCarrySeveralSetups(t *testing.T) {
	log := &writeLog{}
	d := startDaemon(t, func(ln net.Listener) net.Listener {
		return loggingListener{Listener: ln, log: log, delay: time.Millisecond}
	})
	a, b := demoPair(t, d) // b is the second connection accepted
	log.drain(t, a, b)
	skip := len(log.decoded(t)[1])
	const setups = 100
	for i := range setups {
		a.raiseTCP(b, uint16(41000+i))
	}
	waitFor(t, "every setup's flow-mods on switch B", func() bool { return b.mods() == 2*setups })
	log.drain(t, b)
	var ports []uint16
	writes := 0
	for _, w := range log.decoded(t)[1][skip:] {
		n := len(ports)
		for _, m := range w {
			if fm, ok := m.(*openflow.FlowMod); ok {
				ports = append(ports, clientPort(fm))
			}
		}
		if len(ports) > n {
			writes++
		}
	}
	t.Logf("%d setups reached switch B in %d writes", setups, writes)
	if writes >= setups {
		t.Fatalf("%d setups took %d writes to switch B, want fewer", setups, writes)
	}
	if len(ports) != 2*setups {
		t.Fatalf("switch B got %d flow-mods, want %d", len(ports), 2*setups)
	}
	for i, p := range ports {
		if want := uint16(41000 + i/2); p != want {
			t.Fatalf("flow-mod %d on switch B is for client port %d, want %d (setup order)", i, p, want)
		}
	}
}

// A switch that stops reading stalls nobody else: while the daemon's
// writes to it wait, the other switches' setups complete and the lock is
// free; once more than maxPending bytes are queued for it, its connection
// is closed and it leaves the topology.
func TestStalledSwitchCutOff(t *testing.T) {
	d := startDaemon(t, nil)
	a, b := demoPair(t, d)
	c, err := net.Dial("tcp", d.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const dpid = 103
	for _, m := range []openflow.Message{&openflow.Hello{XID: 1}, &openflow.FeaturesReply{XID: 2, DPID: dpid, NTables: 1}} {
		if _, err := c.Write(openflow.MarshalAppend(nil, m)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the third switch to join", func() bool { return d.store.Count(monitor.EventSwitchJoin) == 3 })

	// Each echo request comes back as a reply of the same size, which c
	// never reads.
	echo := openflow.MarshalAppend(nil, &openflow.EchoRequest{XID: 3, Data: make([]byte, 60000)})
	flood := func(bytes int) error {
		for sent := 0; sent < bytes; sent += len(echo) {
			if _, err := c.Write(echo); err != nil {
				return err
			}
		}
		return nil
	}
	// 8 MB of replies is more than the socket buffers between the daemon
	// and c take while c never reads, so from here on the daemon's writes
	// to c wait. A daemon that waits on them under the lock stops
	// reading c, and this flood or the setup below times out.
	_ = c.SetWriteDeadline(time.Now().Add(10 * time.Second))
	if err := flood(8 << 20); err != nil {
		t.Fatalf("the daemon stopped reading the stalled switch: %v", err)
	}
	a.raiseTCP(b, 40000)
	waitFor(t, "a setup between the other switches", func() bool { return a.mods() == 2 && b.mods() == 2 })
	took := make(chan time.Duration, 1)
	go func() {
		start := time.Now()
		d.lk.do(func() {})
		took <- time.Since(start)
	}()
	select {
	case dt := <-took:
		if dt > 100*time.Millisecond {
			t.Fatalf("the controller lock took %v to take, want at most 100ms", dt)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the controller lock is held behind the stalled switch")
	}

	_ = flood(maxPending + 8<<20) // fails once the daemon has cut c off
	_ = c.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.Copy(io.Discard, c); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("the stalled switch's connection is still open past the bound")
	}
	waitFor(t, "the stalled switch to leave", func() bool { return d.store.Count(monitor.EventSwitchLeave) == 1 })
	var topo core.TopologySnapshot
	d.lk.do(func() { topo = d.ctrl.Topology() })
	for _, sw := range topo.Switches {
		if sw.DPID == dpid {
			t.Fatalf("the stalled switch is still in the topology: %+v", topo.Switches)
		}
	}
}

// A switch whose connection closes leaves the topology, with one
// switch-leave event. A switch that has registered again on a second
// connection stays when its first one closes.
func TestClosedSwitchRemoved(t *testing.T) {
	d := startDaemon(t, nil)
	a, b := demoPair(t, d)
	again, err := newDemoSwitch(d.addr, b.name, b.dpid, b.hostIP)
	if err != nil {
		t.Fatal(err)
	}
	defer again.conn.Close()
	again.start()
	waitFor(t, "switch 2's second connection", func() bool { return d.store.Count(monitor.EventSwitchJoin) == 3 })
	_ = a.conn.Close()
	_ = b.conn.Close()
	var topo core.TopologySnapshot
	waitFor(t, "switch 1 to leave the topology", func() bool {
		d.lk.do(func() { topo = d.ctrl.Topology() })
		return len(topo.Switches) == 1
	})
	time.Sleep(3 * tick)
	d.lk.do(func() { topo = d.ctrl.Topology() })
	if len(topo.Switches) != 1 || topo.Switches[0].DPID != b.dpid {
		t.Fatalf("switches left: %+v, want %d only", topo.Switches, b.dpid)
	}
	if n := d.store.Count(monitor.EventSwitchLeave); n != 1 {
		t.Fatalf("%d switch-leave events, want 1", n)
	}
}

// A peer that completes the handshake and then answers nothing is
// declared down by the echo probes alone, its connection still open:
// three unanswered probes, 500 ms apart, and the switch-down line is in
// the event log one pump tick later.
func TestSilentSwitchDeclaredDown(t *testing.T) {
	const (
		dpid      = 104
		probe     = 500 * time.Millisecond // core's echo interval
		misses    = 3                      // and unanswered probes before switch-down
		schedSlop = 100 * time.Millisecond // goroutine wake-ups under -race on a loaded box
	)
	down := &lineWatch{match: fmt.Sprintf("%-20s switch=%d ", monitor.EventSwitchDown, dpid)}
	d := startDaemon(t, nil)
	d.lk.do(func() { d.lk.log.Reset(down) })
	c, err := net.Dial("tcp", d.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	peer := openflow.NewNetConn(c)
	peer.Send(&openflow.Hello{XID: 1})
	peer.Send(&openflow.FeaturesReply{XID: 2, DPID: dpid, NTables: 1})
	// Read what the daemon sends, answer none of it, and note when the
	// first echo request arrives.
	firstEcho := make(chan time.Time, 1)
	peer.SetHandler(func(m openflow.Message) {
		if _, ok := m.(*openflow.EchoRequest); ok {
			select {
			case firstEcho <- time.Now():
			default:
			}
		}
	})
	var probed time.Time
	select {
	case probed = <-firstEcho:
	case <-time.After(2 * probe):
		t.Fatal("the daemon sent no echo request")
	}
	waitFor(t, "the silent switch to be declared down", func() bool { return down.at.Load() != 0 })
	took := time.Unix(0, down.at.Load()).Sub(probed)
	t.Logf("switch-down logged %v after the first probe", took)
	if limit := misses*probe + tick + schedSlop; took > limit {
		t.Fatalf("switch-down logged %v after the first unanswered probe, want at most %v", took, limit)
	}
	if took < (misses-1)*probe {
		t.Fatalf("switch-down logged %v after the first probe: too early for %d missed echoes", took, misses)
	}
}

// A peer that never sends FEATURES_REPLY is cut off handshakeTimeout
// after the accept, although it keeps sending HELLOs and echo requests;
// a switch that completed its handshake stays connected past the same
// deadline.
func TestHandshakeDeadline(t *testing.T) {
	const schedSlop = 500 * time.Millisecond // goroutine wake-ups under -race on a loaded box
	d := startDaemon(t, nil)
	sw, err := newDemoSwitch(d.addr, "sw1", 101, netpkt.IP(10, 50, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer sw.conn.Close()
	sw.start()
	c, err := net.Dial("tcp", d.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	accepted := time.Now()
	peer := openflow.NewNetConn(c)
	peer.SetHandler(func(openflow.Message) {}) // read everything, answer nothing
	peer.Send(&openflow.Hello{XID: 1})
	chatter := time.NewTicker(100 * time.Millisecond)
	defer chatter.Stop()
	cut := peer.(interface{ Done() <-chan struct{} }).Done()
	timeout := time.After(handshakeTimeout + schedSlop)
	for open, xid := true, uint32(2); open; xid++ {
		select {
		case <-chatter.C:
			peer.Send(&openflow.EchoRequest{XID: xid})
		case <-cut:
			open = false
		case <-timeout:
			t.Fatalf("the daemon kept a peer without FEATURES_REPLY for %v", time.Since(accepted))
		}
	}
	took := time.Since(accepted)
	t.Logf("cut off %v after connecting", took)
	if took < handshakeTimeout-schedSlop {
		t.Fatalf("cut off %v after connecting, before the %v handshake deadline", took, handshakeTimeout)
	}
	time.Sleep(3 * tick)
	if n := d.store.Count(monitor.EventSwitchLeave); n != 0 {
		t.Fatalf("%d switch-leave events: the handshake deadline cut off a switch that completed its handshake", n)
	}
	select {
	case <-sw.conn.(interface{ Done() <-chan struct{} }).Done():
		t.Fatal("the daemon closed a switch that completed its handshake")
	default:
	}
}

// lineWatch is an event-log writer that stamps, in unix ns, the first
// write containing match.
type lineWatch struct {
	match string
	at    atomic.Int64
}

func (w *lineWatch) Write(p []byte) (int, error) {
	if w.at.Load() == 0 && strings.Contains(string(p), w.match) {
		w.at.Store(time.Now().UnixNano())
	}
	return len(p), nil
}

// A connection's goroutines (reader, writer, close watch) end with it:
// after switches connect and close 50 times, no goroutine is left over.
func TestConnectionGoroutinesExit(t *testing.T) {
	d := startDaemon(t, nil)
	base := runtime.NumGoroutine()
	for i := range uint64(50) {
		s, err := newDemoSwitch(d.addr, "sw1", 101, netpkt.IP(10, 50, 0, 1))
		if err != nil {
			t.Fatal(err)
		}
		s.start()
		waitFor(t, "the handshake", func() bool { return d.store.Count(monitor.EventSwitchJoin) == i+1 })
		_ = s.conn.Close()
		waitFor(t, "the switch to leave", func() bool { return d.store.Count(monitor.EventSwitchLeave) == i+1 })
	}
	waitFor(t, "the goroutine count to return to its baseline", func() bool { return runtime.NumGoroutine() <= base })
}

// BenchmarkDaemonColdSetup times one cold setup (a selector the controller
// has not decided before) through a daemon over loopback: from the
// packet-in out of switch A until both switches have their flow-mods.
// writes/setup counts the daemon's socket writes; retained-B/op is the
// live heap each setup leaves behind.
func BenchmarkDaemonColdSetup(b *testing.B) {
	log := &writeLog{countOnly: true}
	d := startDaemon(b, func(ln net.Listener) net.Listener { return loggingListener{Listener: ln, log: log} })
	sa, sb := demoPair(b, d)
	flowMods := make(chan struct{}, 4) // one setup's flow-mods, two per switch
	for _, s := range []*demoSwitch{sa, sb} {
		s.conn.SetHandler(func(m openflow.Message) { // the demo's handler without its FLOW_MOD lines
			if _, ok := m.(*openflow.FlowMod); ok {
				flowMods <- struct{}{}
				return
			}
			s.handle(m)
		})
	}
	writes := func() int {
		log.mu.Lock()
		defer log.mu.Unlock()
		return log.n
	}
	// The heap live after a collection and the mapped slabs, before and
	// after the timed loop: the state the daemon keeps per cold setup, not
	// only what it allocates.
	w0, h0 := writes(), slotstest.Retained()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The destination port is in the selector, so the first 65,535
		// setups are cold; the source port keeps later ones new flows.
		sa.raisePacketIn(netpkt.NewTCP(sa.hostMAC, sb.hostMAC, sa.hostIP, sb.hostIP,
			uint16(10000+i/65535), uint16(1+i%65535), []byte("GET /")))
		for range 4 {
			<-flowMods
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(writes()-w0)/float64(b.N), "writes/setup")
	b.ReportMetric(float64(slotstest.Retained()-h0)/float64(b.N), "retained-B/op")
}

// Events are stamped with the wall clock at dispatch, not with the last
// idle tick: two packet-ins 1 ms apart get distinct, increasing times.
func TestEventTimeAdvancesPerDispatch(t *testing.T) {
	d := startDaemon(t, nil)
	a, err := newDemoSwitch(d.addr, "sw1", 101, netpkt.IP(10, 50, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer a.conn.Close()
	a.start()
	waitFor(t, "handshake", func() bool { return d.store.Count(monitor.EventSwitchJoin) == 1 })
	const hosts = 10
	for i := 0; i < hosts; i++ {
		a.raisePacketIn(netpkt.NewARPRequest(netpkt.MACFromUint64(uint64(7000+i)),
			netpkt.IP(10, 50, 1, byte(i)), netpkt.IP(10, 50, 0, 9)))
		time.Sleep(time.Millisecond)
	}
	waitFor(t, "user-join events", func() bool { return d.store.Count(monitor.EventUserJoin) == hosts })
	joins := d.store.Events(monitor.Filter{Type: monitor.EventUserJoin})
	for i := 1; i < len(joins); i++ {
		if joins[i].At <= joins[i-1].At {
			t.Fatalf("event %d at %v, its predecessor (sent ≥1 ms earlier) at %v", i, joins[i].At, joins[i-1].At)
		}
	}
}

// get fetches path from the daemon's monitoring API.
func (d *testDaemon) get(t *testing.T, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	d.api.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != 200 {
		t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body)
	}
	return rec.Body.String()
}

// TestLiveMetricsExposition: a daemon that has set flows up over real
// sockets serves a well-formed Prometheus exposition counting them, and
// the spans it recorded.
func TestLiveMetricsExposition(t *testing.T) {
	d := startDaemon(t, nil)
	a, b := demoPair(t, d)
	const flows = 3
	for i := 0; i < flows; i++ {
		a.raiseTCP(b, uint16(42000+i))
	}
	waitFor(t, "the flows' setups", func() bool { return d.stats().FlowsRouted == flows })
	metrics := d.get(t, "/metrics")
	if err := obs.LintText(metrics); err != nil {
		t.Fatalf("/metrics does not lint: %v\n%s", err, metrics)
	}
	if want := fmt.Sprintf("livesec_flows_total{kind=\"routed\"} %d\n", flows); !strings.Contains(metrics, want) {
		t.Fatalf("/metrics lacks %q:\n%s", want, metrics)
	}
	// The event and span rings' pages are mapped outside the Go heap, and
	// the gauge says how much is: a positive whole number of bytes, which
	// the exposition's float format writes as 1.196032e+06 once it passes
	// 10⁶.
	sample := regexp.MustCompile(`(?m)^livesec_mapped_bytes (\S+)$`).FindStringSubmatch(metrics)
	if sample == nil {
		t.Fatalf("/metrics lacks livesec_mapped_bytes:\n%s", metrics)
	}
	if v, err := strconv.ParseFloat(sample[1], 64); err != nil || v <= 0 || v != math.Trunc(v) {
		t.Fatalf("livesec_mapped_bytes = %s, want a positive whole number of bytes", sample[1])
	}
	if traces := d.get(t, "/traces?limit=5"); !strings.Contains(traces, `"recorded"`) {
		t.Fatalf("/traces response malformed: %s", traces)
	}
}

// TestDefaultDaemonObservable: the daemon livesecd runs with no flags
// shows its operator what one demo setup did — the completed setup on
// /metrics, its span on /traces, and the default alert rules on /alerts.
func TestDefaultDaemonObservable(t *testing.T) {
	d := startDaemon(t, nil)
	a, b := demoPair(t, d)
	a.raiseTCP(b, 42000)
	waitFor(t, "the setup", func() bool { return d.stats().FlowsRouted == 1 })
	if m := d.get(t, "/metrics"); !strings.Contains(m, "livesec_flow_setup_seconds_count 1\n") {
		t.Fatalf("/metrics lacks one completed setup:\n%s", m)
	}
	var tr monitor.TracesResponse
	if err := json.Unmarshal([]byte(d.get(t, "/traces")), &tr); err != nil || len(tr.Spans) == 0 {
		t.Fatalf("/traces served no span (err %v): %+v", err, tr)
	}
	var ar monitor.AlertsResponse
	if err := json.Unmarshal([]byte(d.get(t, "/alerts")), &ar); err != nil {
		t.Fatal(err)
	}
	var rules []string
	for _, a := range ar.Alerts {
		rules = append(rules, a.Rule)
	}
	want := []string{"flow_setup_latency_slo", "packet_in_shed_rate", "breaker_open", "fw_handoff_timeout", "seproto_sync_error"}
	if !slices.Equal(rules, want) {
		t.Fatalf("/alerts rules = %v, want %v", rules, want)
	}
}

// A flow event is recorded without its user, whom its flow key names:
// after one demo setup the daemon's flow-start line still reads
// user=<source MAC>, and /events?user=<source MAC> returns the event.
func TestFlowEventUserNamed(t *testing.T) {
	var out syncBuffer
	d := startDaemonLogging(t, &out, nil)
	a, b := demoPair(t, d)
	a.raiseTCP(b, 42000)
	waitFor(t, "the setup", func() bool { return d.stats().FlowsRouted == 1 })
	d.lk.flush()
	mac := a.hostMAC.String()
	var line string
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(l, "event "+string(monitor.EventFlowStart)+" ") {
			line = l
		}
	}
	if !strings.Contains(line, " user="+mac+" ") {
		t.Fatalf("flow-start line %q does not name user %s; event log:\n%s", line, mac, out.String())
	}
	var evs []monitor.Event
	if err := json.Unmarshal([]byte(d.get(t, "/events?user="+mac)), &evs); err != nil {
		t.Fatal(err)
	}
	var starts []monitor.Event
	for _, ev := range evs {
		if ev.User != mac {
			t.Fatalf("/events?user=%s returned an event of user %q: %+v", mac, ev.User, ev)
		}
		if ev.Type == monitor.EventFlowStart {
			starts = append(starts, ev)
		}
	}
	if len(starts) != 1 || starts[0].FlowDesc == "" {
		t.Fatalf("/events?user=%s returned flow-start events %+v, want the one setup's, its flow described", mac, starts)
	}
}

// Two connection readers dispatch concurrently while HTTP snapshots go
// through Sync; the controller lock orders them all (run with -race).
func TestConcurrentSwitchesAndPolling(t *testing.T) {
	d := startDaemon(t, nil)
	api := httptest.NewServer(d.api)
	defer api.Close()
	a, b := demoPair(t, d)

	const flows = 25
	stop := make(chan struct{})
	var pollers, senders sync.WaitGroup
	for _, path := range []string{"/events?since=3&limit=10", "/topology", "/health"} {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := api.Client().Get(api.URL + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("GET %s: status %d", path, resp.StatusCode)
					return
				}
			}
		}()
	}
	for _, pair := range [][2]*demoSwitch{{a, b}, {b, a}} {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for i := 0; i < flows; i++ {
				pair[0].raiseTCP(pair[1], uint16(41000+i))
			}
		}()
	}
	senders.Wait()
	waitFor(t, "every flow's four flow-mods", func() bool { return a.mods() == 4*flows && b.mods() == 4*flows })
	close(stop)
	pollers.Wait()
	if st := d.stats(); st.FlowsRouted != 2*flows {
		t.Fatalf("flows routed = %d, want %d", st.FlowsRouted, 2*flows)
	}
}

// syncBuffer is a bytes.Buffer the pump goroutine may write while the
// test reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// The buffered event log reaches its writer within a tick with no further
// traffic, and at once on flush (the SIGINT and end-of-demo path).
func TestEventLogFlushed(t *testing.T) {
	var out syncBuffer
	lk := newCtrlLock(&out)
	lk.do(func() { _, _ = io.WriteString(lk.log, "event one\n") })
	waitFor(t, "the tick to flush the log", func() bool { return out.String() == "event one\n" })
	lk.do(func() { _, _ = io.WriteString(lk.log, "event two\n") })
	lk.flush()
	if got := out.String(); !strings.HasSuffix(got, "event two\n") {
		t.Fatalf("after flush the log holds %q", got)
	}
}

// TestEventLineMatchesSprintf: the event log line is byte for byte the
// line fmt formats, for a type shorter than its 20-column field and for
// one longer.
func TestEventLineMatchesSprintf(t *testing.T) {
	for _, ev := range []monitor.Event{
		{Type: monitor.EventFlowStart, Switch: 7, User: "02:00:00:00:00:a1", Detail: "allow web"},
		{Type: "an-event-type-past-twenty-bytes", Switch: 1 << 40, Detail: "chain inspect via se1,se2"},
		{Type: "überwachung"},
	} {
		want := fmt.Sprintf("event %-20s switch=%d user=%s %s\n", ev.Type, ev.Switch, ev.User, ev.Detail)
		if got := string(appendEventLine([]byte("kept "), ev)); got != "kept "+want {
			t.Errorf("line %q, fmt %q", got, "kept "+want)
		}
	}
}

// TestDaemonPollsLinkLoads: the daemon asks a switch for its port and
// table statistics within two poll periods of the handshake, polls its
// ports again a period later, and once the switch has answered both port
// polls, /topology lists its table row and the port's load at the rate
// its counters imply.
func TestDaemonPollsLinkLoads(t *testing.T) {
	const (
		dpid  = 105
		port  = 1
		delta = 1_250_000 // bytes between the two port replies
	)
	d := startDaemon(t, nil)
	c, err := net.Dial("tcp", d.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	peer := openflow.NewNetConn(c)
	portPolls := make(chan *openflow.StatsRequest, 2) // the two the test answers; later polls are dropped
	var tablePolled atomic.Int64                      // unix ns of the first table poll
	peer.SetHandler(func(m openflow.Message) {
		switch m := m.(type) {
		case *openflow.EchoRequest:
			peer.Send(&openflow.EchoReply{XID: m.XID, Data: m.Data})
		case *openflow.StatsRequest:
			if m.Kind == openflow.StatsPort {
				select {
				case portPolls <- m:
				default:
				}
				return
			}
			tablePolled.CompareAndSwap(0, time.Now().UnixNano())
			peer.Send(&openflow.StatsReply{XID: m.XID, Kind: openflow.StatsTable,
				Tables: []openflow.TableStat{{ActiveCount: 7, LookupCount: 9, MatchedCount: 8}}})
		}
	})
	peer.Send(&openflow.Hello{XID: 1})
	peer.Send(&openflow.FeaturesReply{XID: 2, DPID: dpid, NTables: 1,
		Ports: []openflow.PortDesc{{No: port, Name: "sw5-p1"}}})
	handshake := time.Now()
	// answer awaits a port poll until by and replies with counters at
	// bytes, returning when the reply left.
	answer := func(by time.Time, bytes uint64) time.Time {
		select {
		case req := <-portPolls:
			peer.Send(&openflow.StatsReply{XID: req.XID, Kind: openflow.StatsPort,
				Ports: []openflow.PortStat{{PortNo: port, RxBytes: bytes, TxBytes: bytes}}})
			return time.Now()
		case <-time.After(time.Until(by)):
			t.Fatalf("no port poll %v after the handshake", by.Sub(handshake))
			return time.Time{}
		}
	}
	first := answer(handshake.Add(2*statsPeriod), 1_000_000)
	second := answer(first.Add(statsPeriod*3/2), 1_000_000+delta)
	if at := tablePolled.Load(); at == 0 || time.Unix(0, at).Sub(handshake) > 2*statsPeriod {
		t.Fatalf("no table poll within %v of the handshake", 2*statsPeriod)
	}
	want := float64(delta) * 8 / second.Sub(first).Seconds() / 1e6
	var topo core.TopologySnapshot
	waitFor(t, "the port load on /topology", func() bool {
		if err := json.Unmarshal([]byte(d.get(t, "/topology")), &topo); err != nil {
			t.Fatal(err)
		}
		return len(topo.Loads) > 0
	})
	if len(topo.Tables) != 1 || topo.Tables[0] != (core.TableStats{DPID: dpid, Active: 7, Lookups: 9, Matched: 8}) {
		t.Errorf("/topology tables = %+v, want one row for dpid %d with 7 active entries", topo.Tables, dpid)
	}
	if len(topo.Loads) != 1 {
		t.Fatalf("/topology loads = %+v, want one", topo.Loads)
	}
	if l := topo.Loads[0]; l.DPID != dpid || l.Port != port || l.RxMbps < 0.9*want || l.RxMbps > 1.1*want || l.TxMbps != l.RxMbps {
		t.Fatalf("/topology load = %+v, want dpid %d port %d at %.1f Mbit/s each way", l, dpid, port, want)
	}
}
