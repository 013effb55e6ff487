package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"livesec/internal/core"
	"livesec/internal/monitor"
	"livesec/internal/netpkt"
	"livesec/internal/obs"
	"livesec/internal/openflow"
)

// Without SendBatch, SendAll silently degrades to one write per message.
var _ openflow.Batcher = (*pumpedConn)(nil)

// testDaemon is the daemon run() wires, accepting switches on an
// ephemeral loopback port.
type testDaemon struct {
	*daemon
	addr string
}

// startDaemon serves on wrap(listener); a nil wrap serves on the listener
// itself. withObs is livesecd's -obs.
func startDaemon(t *testing.T, withObs bool, wrap func(net.Listener) net.Listener) *testDaemon {
	t.Helper()
	d := &testDaemon{daemon: newDaemon(io.Discard, withObs, false)}
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
func waitFor(t *testing.T, what string, cond func() bool) {
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
func demoPair(t *testing.T, d *testDaemon) (a, b *demoSwitch) {
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
	d := startDaemon(t, false, nil)
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
	mu     sync.Mutex
	writes [][][]byte
}

type loggingListener struct {
	net.Listener
	log *writeLog
}

func (l loggingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.log.mu.Lock()
	defer l.log.mu.Unlock()
	l.log.writes = append(l.log.writes, nil)
	return &loggingConn{Conn: c, log: l.log, id: len(l.log.writes) - 1}, nil
}

type loggingConn struct {
	net.Conn
	log *writeLog
	id  int
}

func (c *loggingConn) Write(p []byte) (int, error) {
	c.log.mu.Lock()
	c.log.writes[c.id] = append(c.log.writes[c.id], bytes.Clone(p))
	c.log.mu.Unlock()
	return c.Conn.Write(p)
}

// setupWrites returns, per connection, how many writes so far carried
// part of a flow setup (a flow-mod, or a packet-out that is not an LLDP
// probe), and the total number of flow-mods.
func (l *writeLog) setupWrites(t *testing.T) (perConn []int, flowMods int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, writes := range l.writes {
		n := 0
		for _, w := range writes {
			part := false
			for len(w) > 0 {
				size := int(binary.BigEndian.Uint16(w[2:4]))
				m, err := openflow.Decode(w[:size])
				if err != nil {
					t.Fatalf("controller wrote an undecodable message: %v", err)
				}
				switch m := m.(type) {
				case *openflow.FlowMod:
					flowMods++
					part = true
				case *openflow.PacketOut:
					if pkt, err := netpkt.Unmarshal(m.Data); err == nil && pkt.LLDP == nil {
						part = true
					}
				}
				w = w[size:]
			}
			if part {
				n++
			}
		}
		perConn = append(perConn, n)
	}
	return perConn, flowMods
}

// A flow setup costs one transport write per switch it touches: the
// flow-mods and the released packet leave in one batch each.
func TestOneWritePerSwitchPerSetup(t *testing.T) {
	log := &writeLog{}
	d := startDaemon(t, false, func(ln net.Listener) net.Listener { return loggingListener{ln, log} })
	a, b := demoPair(t, d)
	outsBefore := d.stats().PacketOuts // taken under the lock: earlier dispatches have finished writing
	before, modsBefore := log.setupWrites(t)
	a.raiseTCP(b, 40000)
	waitFor(t, "flow-mods on both switches", func() bool { return a.mods() == 2 && b.mods() == 2 })
	waitFor(t, "the released packet", func() bool { return d.stats().PacketOuts > outsBefore })
	after, modsAfter := log.setupWrites(t)
	if len(after) != 2 || after[0]-before[0] != 1 || after[1]-before[1] != 1 || modsAfter-modsBefore != 4 {
		t.Fatalf("one setup: setup writes per switch %v → %v carrying %d flow-mods, want one more each and 4",
			before, after, modsAfter-modsBefore)
	}
}

// Events are stamped with the wall clock at dispatch, not with the last
// idle tick: two packet-ins 1 ms apart get distinct, increasing times.
func TestEventTimeAdvancesPerDispatch(t *testing.T) {
	d := startDaemon(t, false, nil)
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

// TestLiveMetricsExposition: a daemon run with -obs that has set flows up
// over real sockets serves a well-formed Prometheus exposition counting
// them, and the spans it recorded.
func TestLiveMetricsExposition(t *testing.T) {
	d := startDaemon(t, true, nil)
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
	if traces := d.get(t, "/traces?limit=5"); !strings.Contains(traces, `"recorded"`) {
		t.Fatalf("/traces response malformed: %s", traces)
	}
}

// Two connection readers dispatch concurrently while HTTP snapshots go
// through Sync; the controller lock orders them all (run with -race).
func TestConcurrentSwitchesAndPolling(t *testing.T) {
	d := startDaemon(t, false, nil)
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

// Cold setups beyond the slack leave a switch's reader no faster than one
// per coldGap and none is dropped; setups whose decision is cached are not
// charged at all.
func TestColdSetupsPaced(t *testing.T) {
	d := startDaemon(t, false, nil)
	a, b := demoPair(t, d)
	slack := int(coldSlack / coldGap)
	cold := slack + int(500*time.Millisecond/coldGap) // half a second past the slack
	raise := func(dstPort int) {
		a.raisePacketIn(netpkt.NewTCP(a.hostMAC, b.hostMAC, a.hostIP, b.hostIP, 40000, uint16(dstPort), []byte("GET /")))
	}
	start := time.Now()
	for i := 0; i < cold; i++ {
		raise(1000 + i) // the selector includes the destination port
	}
	waitFor(t, "every cold setup", func() bool { return d.stats().FlowsRouted == uint64(cold) })
	if took, least := time.Since(start), 500*time.Millisecond-tick-time.Millisecond; took < least {
		t.Fatalf("%d cold setups took %v, want at least %v", cold, took, least)
	}
	if st := d.stats(); st.DecisionCacheMisses != uint64(cold) {
		t.Fatalf("decision-cache misses = %d, want one per cold setup (%d)", st.DecisionCacheMisses, cold)
	}
	for i := 0; i < 100; i++ {
		raise(1000)
	}
	waitFor(t, "every cached setup", func() bool { return d.stats().FlowsRouted == uint64(cold+100) })
	if st := d.stats(); st.DecisionCacheMisses != uint64(cold) {
		t.Fatalf("cached setups were counted cold: misses %d, want %d", st.DecisionCacheMisses, cold)
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
