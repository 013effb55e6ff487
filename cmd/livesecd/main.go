// Command livesecd runs the LiveSec controller as a real network
// service: it listens for OpenFlow secure channels on TCP and serves the
// monitoring API over HTTP. The same controller logic that drives the
// simulator handles the live connections; virtual time is pumped from
// the wall clock.
//
// Usage:
//
//	livesecd [-listen :6633] [-http :8080] [-demo]
//
// The controller records flow-setup trace spans and runtime metrics, and
// its deterministic SLO/alert engine evaluates the default rule pack under
// the controller lock. The monitoring API serves them on GET /metrics
// (Prometheus text exposition), GET /traces (JSON spans) and GET /alerts,
// and the controller health rollup on GET /health. Switch stats are polled
// every second, so GET /topology carries per-port link loads (§IV.D).
//
// With -demo, livesecd spawns two in-process OpenFlow switches that
// connect over TCP loopback, complete the handshake, exchange LLDP via
// an emulated legacy fabric, and raise packet-ins for two hosts and a
// TCP flow — demonstrating handshake, discovery, ARP proxying, and
// end-to-end flow installation on the wire. Interrupt with ^C.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"livesec/internal/core"
	"livesec/internal/monitor"
	"livesec/internal/openflow"
	"livesec/internal/policy"
	"livesec/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "livesecd:", err)
		os.Exit(1)
	}
}

func run() error {
	listenAddr := flag.String("listen", "127.0.0.1:6633", "OpenFlow listen address")
	httpAddr := flag.String("http", "127.0.0.1:8080", "monitoring HTTP address ('' disables)")
	demo := flag.Bool("demo", false, "spawn two loopback demo switches and exercise the control path")
	demoTimeout := flag.Duration("demo-timeout", 3*time.Second, "how long the demo runs before exiting")
	flag.Parse()

	d := newDaemon(os.Stdout)

	ln, err := net.Listen("tcp", *listenAddr)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Printf("livesecd: OpenFlow on %s\n", ln.Addr())

	if *httpAddr != "" {
		httpLn, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return err
		}
		defer httpLn.Close()
		fmt.Printf("livesecd: monitoring API on http://%s\n", httpLn.Addr())
		go func() { _ = http.Serve(httpLn, d.api) }()
	}

	go acceptLoop(ln, d.lk, d.ctrl)

	if *demo {
		go func() {
			if err := runDemo(ln.Addr().String()); err != nil {
				fmt.Fprintln(os.Stderr, "demo:", err)
			}
		}()
		time.Sleep(*demoTimeout)
		var st core.Stats
		d.lk.do(func() { st = d.ctrl.Stats(); _ = d.lk.log.Flush() })
		fmt.Printf("\ndemo summary: packetIns=%d flowMods=%d packetOuts=%d arpProxied=%d flowsRouted=%d\n",
			st.PacketIns, st.FlowModsSent, st.PacketOuts, st.ARPProxied, st.FlowsRouted)
		if st.FlowsRouted == 0 {
			return fmt.Errorf("demo did not install a flow")
		}
		fmt.Println("demo: OK")
		return nil
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	signal.Stop(sig) // a second ^C kills outright, should stdout block the last flush
	d.lk.flush()
	fmt.Println("livesecd: shutting down")
	return nil
}

// daemon is livesecd minus flags and listeners: the controller behind its
// lock, the event store feeding the buffered event log, and the
// monitoring API handler over both.
type daemon struct {
	lk    *ctrlLock
	ctrl  *core.Controller
	store *monitor.Store
	api   http.Handler
}

// newDaemon wires the daemon: the controller, polling switch stats, whose
// alert engine records its transitions as events, and the monitoring API,
// whose snapshots run under the controller lock. Event lines go to log.
func newDaemon(log io.Writer) *daemon {
	d := &daemon{lk: newCtrlLock(log), store: monitor.NewStore(0)}
	lk := d.lk
	lk.do(func() {
		d.ctrl = core.New(core.Config{
			Engine:   lk.eng,
			Store:    d.store,
			Policies: policy.NewTable(policy.Allow),
		})
		d.ctrl.Start()
		d.ctrl.StartStatsPolling(statsPeriod)
	})
	d.api = d.ctrl.APIHandler(lk.do)
	d.store.Subscribe(func(ev monitor.Event) { // Record runs under the lock, so the lock guards lk.log too
		_, _ = lk.log.Write(appendEventLine(lk.log.AvailableBuffer(), ev)) // a bufio.Writer's error waits for its flush
	})
	return d
}

// appendEventLine appends ev's log line to b: the bytes of
// fmt.Sprintf("event %-20s switch=%d user=%s %s\n", ev.Type, ev.Switch,
// ev.User, ev.Detail), which every flow setup writes, built without fmt.
func appendEventLine(b []byte, ev monitor.Event) []byte {
	b = append(b, "event "...)
	b = append(b, ev.Type...)
	for n := utf8.RuneCountInString(string(ev.Type)); n < 20; n++ {
		b = append(b, ' ')
	}
	b = append(b, " switch="...)
	b = strconv.AppendUint(b, ev.Switch, 10)
	b = append(b, " user="...)
	b = append(b, ev.User...)
	b = append(b, ' ')
	b = append(b, ev.Detail...)
	return append(b, '\n')
}

const statsPeriod = time.Second // how often every switch's port and table stats are polled

func acceptLoop(ln net.Listener, lk *ctrlLock, ctrl *core.Controller) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		_ = c.SetReadDeadline(time.Now().Add(handshakeTimeout)) // fails only once closed, as the reader then does
		q := &queuedConn{Conn: c, wake: make(chan struct{}, 1)}
		go q.writeLoop()
		conn := &pumpedConn{Conn: openflow.NewNetConn(q), sock: c, lk: lk, ctrl: ctrl}
		lk.do(func() { ctrl.AddSwitch(conn) })
		go conn.removeOnClose()
	}
}

// ctrlLock is the daemon's one concurrency rule: the controller, its
// engine (virtual time) and the buffered event log are touched only with
// mu held — by connection readers and close watchers, accept, HTTP Sync
// and the idle timer. Connection writers never take it.
type ctrlLock struct {
	mu     sync.Mutex
	eng    *sim.Engine
	start  time.Time
	log    *bufio.Writer          // one line per monitoring event, flushed every tick
	owners map[uint64]*pumpedConn // the connection each DPID last registered on
}

func newCtrlLock(log io.Writer) *ctrlLock {
	l := &ctrlLock{eng: sim.NewEngine(time.Now().UnixNano()), start: time.Now(), log: bufio.NewWriterSize(log, 1<<16),
		owners: make(map[uint64]*pumpedConn)}
	go l.pump()
	return l
}

const tick = 5 * time.Millisecond // the idle pump's period

// pump is the idle fallback: with nothing to dispatch, the controller's
// timers and the event log still run at most a tick behind the wall clock.
func (l *ctrlLock) pump() {
	for range time.Tick(tick) {
		l.flush()
	}
}

// do runs fn with the lock held, first advancing virtual time to the wall
// clock so that what fn records is stamped now. fn must not call do.
func (l *ctrlLock) do(fn func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	_ = l.eng.Run(time.Since(l.start)) // fails only after Stop, which nothing calls
	fn()
}

// flush writes the buffered event lines out.
func (l *ctrlLock) flush() {
	l.do(func() { _ = l.log.Flush() }) // stdout gone: nowhere left to report it
}

// A peer is cut off, its connection closed, unless its FEATURES_REPLY
// arrives within handshakeTimeout of the accept; from then on, the echo
// probes judge its liveness.
const handshakeTimeout = 5 * time.Second

// pumpedConn adapts a net-backed OpenFlow channel so received messages
// are handled under the controller lock, on the connection's own reader.
type pumpedConn struct {
	openflow.Conn
	sock net.Conn // carries the handshake's read deadline
	lk   *ctrlLock
	ctrl *core.Controller
	dpid uint64 // from the features reply relayed last; guarded by lk
}

func (c *pumpedConn) SetHandler(fn func(openflow.Message)) {
	c.Conn.SetHandler(func(m openflow.Message) {
		c.lk.do(func() {
			if fr, ok := m.(*openflow.FeaturesReply); ok {
				c.dpid, c.lk.owners[fr.DPID] = fr.DPID, c
				_ = c.sock.SetReadDeadline(time.Time{}) // fails only once closed
			}
			fn(m)
		})
	})
}

// removeOnClose takes the switch down once its connection closes, for
// whatever cause, unless it has registered again on a newer connection.
func (c *pumpedConn) removeOnClose() {
	<-c.Conn.(interface{ Done() <-chan struct{} }).Done()
	c.lk.do(func() {
		if c.lk.owners[c.dpid] == c {
			delete(c.lk.owners, c.dpid)
			c.ctrl.RemoveSwitch(c.dpid)
		}
	})
}

// A switch is cut off, its connection closed, once more than maxPending
// bytes are queued for it or one write to it outlasts writeTimeout. The
// largest burst the controller sends one switch is ReapplyPolicies
// denying every session: two 64-byte deletes per session to every switch
// and a 64-byte drop at its ingress, 19.2 MB for 10⁵ sessions. A write
// carries at most maxPending bytes, so only a switch reading under 1.2 MB
// a second can outlast writeTimeout.
const (
	maxPending   = 32 << 20
	writeTimeout = 30 * time.Second
)

// queuedConn is a switch socket whose writes are queued: Write appends to
// pending and returns without a system call, and the connection's writer
// goroutine sends whatever has accumulated, in order and in one Write,
// outside the controller lock.
type queuedConn struct {
	net.Conn
	wake    chan struct{} // holds a token once pending has grown since the writer last took it
	mu      sync.Mutex
	pending []byte
	closed  bool
}

func (q *queuedConn) Write(p []byte) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || len(q.pending)+len(p) > maxPending {
		_ = q.closeLocked()
		return 0, net.ErrClosed
	}
	q.pending = append(q.pending, p...)
	select {
	case q.wake <- struct{}{}:
	default:
	}
	return len(p), nil
}

// writeLoop exits once the connection is closed.
func (q *queuedConn) writeLoop() {
	var out []byte
	for range q.wake {
		q.mu.Lock()
		out, q.pending = q.pending, out[:0]
		q.mu.Unlock()
		if len(out) == 0 { // a token left by a Write whose bytes the last write carried
			continue
		}
		_ = q.Conn.SetWriteDeadline(time.Now().Add(writeTimeout)) // fails only once closed, as Write then does
		if _, err := q.Conn.Write(out); err != nil {
			_ = q.Close()
			return
		}
	}
}

func (q *queuedConn) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closeLocked()
}

func (q *queuedConn) closeLocked() error {
	if q.closed {
		return net.ErrClosed
	}
	q.closed, q.pending = true, nil
	close(q.wake)
	return q.Conn.Close()
}
