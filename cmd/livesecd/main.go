// Command livesecd runs the LiveSec controller as a real network
// service: it listens for OpenFlow secure channels on TCP and serves the
// monitoring API over HTTP. The same controller logic that drives the
// simulator handles the live connections; virtual time is pumped from
// the wall clock.
//
// Usage:
//
//	livesecd [-listen :6633] [-http :8080] [-obs] [-slo] [-demo]
//
// With -obs, the controller records flow-setup trace spans and runtime
// metrics; the monitoring API then serves them on GET /metrics
// (Prometheus text exposition) and GET /traces (JSON spans). With -slo
// (implies -obs), the deterministic SLO/alert engine evaluates the
// default rule pack under the controller lock and the API additionally
// serves GET /alerts. GET /health always serves the controller health rollup.
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
	"sync"
	"time"

	"livesec/internal/core"
	"livesec/internal/monitor"
	"livesec/internal/obs"
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
	obsFlag := flag.Bool("obs", false, "record flow-setup traces and metrics, served on /metrics and /traces")
	sloFlag := flag.Bool("slo", false, "evaluate the SLO/alert rule pack, served on /alerts (implies -obs)")
	demo := flag.Bool("demo", false, "spawn two loopback demo switches and exercise the control path")
	demoTimeout := flag.Duration("demo-timeout", 3*time.Second, "how long the demo runs before exiting")
	flag.Parse()

	d := newDaemon(os.Stdout, *obsFlag || *sloFlag, *sloFlag)

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
	signal.Stop(sig) // a second ^C kills outright, should a stalled switch hold the lock
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

// newDaemon wires the daemon. withObs records flow-setup traces and
// metrics; withSLO (which needs withObs) also runs the alert engine on
// the controller's clock. Event lines go to log.
func newDaemon(log io.Writer, withObs, withSLO bool) *daemon {
	d := &daemon{lk: newCtrlLock(log), store: monitor.NewStore(0)}
	lk := d.lk
	var fo *obs.FlowObs
	if withObs {
		fo = obs.NewFlowObs(0)
	}
	var alerts *obs.AlertEngine
	lk.do(func() {
		d.ctrl = core.New(core.Config{
			Engine:   lk.eng,
			Store:    d.store,
			Policies: policy.NewTable(policy.Allow),
			Obs:      fo,
		})
		d.ctrl.Start()
		if withSLO {
			alerts = obs.NewAlertEngine(fo, 0, obs.DefaultRules(fo))
			alerts.OnTransition = d.store.RecordAlert
			var tick func()
			tick = func() { alerts.Tick(lk.eng.Now()); lk.eng.Schedule(alerts.Interval(), tick) }
			lk.eng.Schedule(alerts.Interval(), tick)
		}
	})
	// The handler serializes Topology and obs snapshots through Sync,
	// so Topology must return directly rather than nest lk.do.
	d.api = monitor.NewAPIHandler(monitor.HandlerConfig{
		Store:    d.store,
		Topology: func() any { return d.ctrl.Topology() },
		Obs:      fo,
		Alerts:   alerts,
		Health:   func() []monitor.HealthComponent { return d.ctrl.HealthComponents() },
		Sync:     lk.do,
	})
	d.store.Subscribe(func(ev monitor.Event) { // Record runs under the lock, so the lock guards lk.log too
		fmt.Fprintf(lk.log, "event %-20s switch=%d user=%s %s\n", ev.Type, ev.Switch, ev.User, ev.Detail)
	})
	return d
}

func acceptLoop(ln net.Listener, lk *ctrlLock, ctrl *core.Controller) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		conn := &pumpedConn{Conn: openflow.NewNetConn(c), lk: lk, ctrl: ctrl}
		lk.do(func() { ctrl.AddSwitch(conn) })
	}
}

// ctrlLock is the daemon's one concurrency rule: the controller, its
// engine (virtual time) and the buffered event log are touched only with
// mu held — by connection readers, accept, HTTP Sync and the idle timer.
type ctrlLock struct {
	mu    sync.Mutex
	eng   *sim.Engine
	start time.Time
	log   *bufio.Writer // one line per monitoring event, flushed every tick
}

func newCtrlLock(log io.Writer) *ctrlLock {
	l := &ctrlLock{eng: sim.NewEngine(time.Now().UnixNano()), start: time.Now(), log: bufio.NewWriterSize(log, 1<<16)}
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

// pumpedConn adapts a net-backed OpenFlow channel so received messages
// are handled under the controller lock, on the connection's own reader.
type pumpedConn struct {
	openflow.Conn
	lk   *ctrlLock
	ctrl *core.Controller
}

func (c *pumpedConn) SendBatch(ms []openflow.Message) { openflow.SendAll(c.Conn, ms...) }

// Cold setups (first packets whose selector has no cached policy decision:
// what a scan or a flood of novel flows is made of) are paced per switch.
// Past one every coldGap the switch's reader pauses and TCP pushes back;
// nothing is dropped, flows with a cached decision are never paced, and
// the setup rate under a flood is set by the clock, not by the host's load.
const (
	coldGap   = time.Second / 9000     // 9,000 cold setups a second per switch
	coldSlack = 200 * time.Millisecond // unused budget a reader may catch up on
)

func (c *pumpedConn) SetHandler(fn func(openflow.Message)) {
	var due time.Duration // when this switch's cold budget is back to zero
	c.Conn.SetHandler(func(m openflow.Message) {
		var pause time.Duration
		c.lk.do(func() {
			cold := c.ctrl.Stats().DecisionCacheMisses
			fn(m)
			now := c.lk.eng.Now()
			due = max(due, now-coldSlack) + time.Duration(c.ctrl.Stats().DecisionCacheMisses-cold)*coldGap
			pause = due - now
		})
		if pause >= tick { // sleeping off less costs more in wake-ups than it evens out
			time.Sleep(pause)
		}
	})
}
