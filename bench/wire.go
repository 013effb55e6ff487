package main

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// wireSize sizes a wire workload. The full size is fixed here; tests
// build a smaller one.
type wireSize struct {
	hosts       int // per switch
	warmup      int // closed-loop setups before anything is timed
	outstanding int // closed-loop setups in flight per connection
	openRate    int // open-loop packet-ins per second, both switches together
	setups      int // how many times set-up is measured
	replay      replayCalls
}

// fullWire is the size the benchmark runs. The warm-up passes 65,536
// monitoring events because monitor.Store keeps that many and a daemon
// in production lives past that point; throughput before and after it
// differs about ten-fold.
var fullWire = wireSize{hosts: 256, warmup: 66000, outstanding: 4, openRate: 1000, setups: 3, replay: fullReplay}

// wireRig is one livesecd under test with its two emulated switches.
type wireRig struct {
	d   *daemon
	sw  [2]*ofSwitch
	tr  *tracker
	gen *wireGen

	handshakeMS float64
}

func (r *wireRig) close() {
	for _, s := range r.sw {
		if s != nil {
			_ = s.conn.Close()
		}
	}
	r.d.stop()
}

// waitFor polls cond until it holds, the daemon dies or the deadline
// passes.
func (r *wireRig) waitFor(what string, timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if err := r.d.dead(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v waiting for %s", timeout, what)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// newWireRig performs one complete set-up and returns the warmed rig and
// how long it took: spawn the daemon, connect both switches and finish
// the handshake, see LLDP cross the fabric in both directions, announce
// every host, confirm with a probe flow per switch that the controller
// can route between the last hosts announced, and run the warm-up.
// Every step waits on an observed message, not on a pause.
func newWireRig(bin string, seed int64, miss bool, size wireSize) (*wireRig, time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(bin)
	if err != nil {
		return nil, 0, err
	}
	r := &wireRig{d: d, tr: newTracker()}
	var hosts [2][]wireHost
	for i := range r.sw {
		c, err := net.Dial("tcp", d.addr)
		if err != nil {
			r.close()
			return nil, 0, err
		}
		hosts[i] = wireHosts(i, size.hosts)
		r.sw[i] = newOFSwitch(i, c, hosts[i])
		r.sw[i].onFlowMod = r.tr.flowMod
		r.sw[i].onPacketOut = r.tr.packetOut
	}
	r.gen = newWireGen(seed, miss, hosts)
	r.sw[0].peer, r.sw[1].peer = r.sw[1], r.sw[0]
	dialed := time.Now()
	r.sw[0].start()
	r.sw[1].start()
	fail := func(err error) (*wireRig, time.Duration, error) {
		r.close()
		return nil, 0, err
	}
	if err := r.waitFor("features requests", 10*time.Second, func() bool {
		return r.sw[0].featuresAt.Load() != 0 && r.sw[1].featuresAt.Load() != 0
	}); err != nil {
		return fail(err)
	}
	last := max(r.sw[0].featuresAt.Load(), r.sw[1].featuresAt.Load())
	r.handshakeMS = float64(last-dialed.UnixNano()) / 1e6
	if err := r.waitFor("LLDP in both directions", 10*time.Second, func() bool {
		return r.sw[0].lldpRelayed.Load() > 0 && r.sw[1].lldpRelayed.Load() > 0
	}); err != nil {
		return fail(err)
	}
	r.sw[0].announce()
	r.sw[1].announce()
	// A flow between the last hosts announced on each side is routable
	// only once the controller has processed every announcement before
	// them and both LLDP probes; an unroutable first packet is dropped
	// silently, so the probe is repeated until it is answered.
	for sw := range r.sw {
		for try := 0; !r.tr.probeAnswered(sw); try++ {
			if try == 2000 {
				return fail(fmt.Errorf("switch %d: probe flow never answered; the controller did not learn the hosts", sw))
			}
			in := r.gen.probe(sw, try)
			now := r.tr.now()
			r.tr.offer(in, now, now)
			r.sw[sw].conn.Send(in.packetIn())
			if err := r.waitFor("probe flow", 5*time.Millisecond, func() bool { return r.tr.probeAnswered(sw) }); err != nil {
				if derr := d.dead(); derr != nil {
					return fail(derr)
				}
			}
		}
	}
	if _, err := r.closedLoop(size.outstanding, size.warmup, 0); err != nil {
		return fail(err)
	}
	r.tr.take()
	if _, failed, unexpected, why := r.tr.totals(); failed > 0 || unexpected > 0 {
		return fail(fmt.Errorf("warm-up: %d setups failed, %d unexpected messages: %s", failed, unexpected, why))
	}
	return r, time.Since(start), nil
}

// closedLoop keeps `outstanding` setups in flight on each connection
// until count setups have been offered (count > 0) or dur has passed,
// then waits for the stragglers. It returns the phase's start on the
// tracker's clock.
func (r *wireRig) closedLoop(outstanding, count int, dur time.Duration) (startNS int64, err error) {
	tokens := make(chan int, 2*outstanding) // sized to the number of sends
	for sw := 0; sw < 2; sw++ {
		for i := 0; i < outstanding; i++ {
			tokens <- sw
		}
	}
	r.tr.mu.Lock()
	r.tr.tokens = tokens
	r.tr.mu.Unlock()
	defer func() {
		r.tr.mu.Lock()
		r.tr.tokens = nil
		r.tr.mu.Unlock()
	}()

	startNS = r.tr.now()
	var deadline <-chan time.Time
	if dur > 0 {
		deadline = time.After(dur)
	}
	reaper := time.NewTicker(100 * time.Millisecond)
	defer reaper.Stop()
	offered := 0
loop:
	for count == 0 || offered < count {
		select {
		case sw := <-tokens:
			in := r.gen.draw(sw)
			now := r.tr.now()
			r.tr.offer(in, now, now)
			r.sw[sw].conn.Send(in.packetIn())
			offered++
		case <-reaper.C:
			if err := r.d.dead(); err != nil {
				return startNS, err
			}
			r.tr.reap()
		case <-deadline:
			break loop
		}
	}
	return startNS, r.drain()
}

// drain waits for the setups in flight, failing those that time out.
func (r *wireRig) drain() error {
	for r.tr.pending() > 0 {
		if err := r.d.dead(); err != nil {
			return err
		}
		time.Sleep(time.Millisecond)
		r.tr.reap()
	}
	return nil
}

// openLoop offers rate packet-ins per second for dur, alternating
// switches, on a fixed schedule that does not wait for replies. It
// returns the phase's start on the tracker's clock and how late the
// generator itself began each send, in nanoseconds: the time past the
// later of the due time and the return of the previous send. A send that
// blocks because the daemon stopped reading delays the ones behind it;
// that wait is the system's, and the latency samples carry it because
// they run from the due time.
func (r *wireRig) openLoop(rate int, dur time.Duration) (startNS int64, late []int64, err error) {
	// time.Sleep wakes up to a millisecond late in a process with open
	// sockets, because the runtime's poller waits in whole milliseconds;
	// at one send per millisecond that is the whole schedule. The sender
	// keeps an OS thread and sleeps in the kernel instead.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	// Linux pads this thread's sleeps by 50 µs unless told otherwise.
	const prSetTimerslack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
	gap := time.Second / time.Duration(rate)
	n := int(dur / gap)
	late = make([]int64, 0, n)
	startNS = r.tr.now()
	lastReap, free := startNS, startNS
	for k := 0; k < n; k++ {
		due := startNS + int64(k)*int64(gap)
		if wait := due - r.tr.now(); wait > 0 {
			ts := syscall.NsecToTimespec(wait)
			_ = syscall.Nanosleep(&ts, nil) // an early wake-up only makes the next check spin once more
		}
		sw := k % 2
		in := r.gen.draw(sw)
		now := r.tr.now()
		r.tr.offer(in, due, now)
		r.sw[sw].conn.Send(in.packetIn())
		late = append(late, ownLateness(now, due, free))
		free = r.tr.now()
		if now-lastReap > int64(100*time.Millisecond) {
			lastReap = now
			if err := r.d.dead(); err != nil {
				return startNS, late, err
			}
			r.tr.reap()
		}
	}
	return startNS, late, r.drain()
}

// ownLateness is how late the generator itself began a send that was
// due at due, when the previous send had returned at free: a send that
// blocked past the next due time is the system's delay, not the
// generator's.
func ownLateness(now, due, free int64) int64 { return now - max(due, free) }

// wireResult is what one wire run measured.
type wireResult struct {
	setupS       []float64 // one per measured set-up
	p50, p99     float64   // µs, median over 1-s windows
	minWindowN   int
	p999         float64 // µs, pooled
	lateP99US    float64 // the generator's own lateness
	setupsPerS   float64
	peakRSSMB    float64
	cpuUSPerSet  float64 // daemon CPU per setup, closed loop
	genUSPerSet  float64 // generator CPU per setup, closed loop
	fmsPerSetup  float64
	handshakeMS  float64
	backlogMax   int
	attempted    int
	failed       int
	unexpected   int
	firstErr     string
	openSetups   int
	closedSetups int
	// otherPacketIns counts what the switches sent besides setups: host
	// announcements and relayed LLDP probes.
	otherPacketIns int
}

// runWire executes one wire workload: size.setups set-ups (the last one
// is kept), an open-loop latency phase and a closed-loop throughput
// phase, each half of the measuring time.
func runWire(bin string, seed int64, miss bool, size wireSize, seconds int) (*wireResult, error) {
	res := &wireResult{}
	var rig *wireRig
	for i := 0; i < size.setups; i++ {
		if rig != nil {
			rig.close()
		}
		r, took, err := newWireRig(bin, seed, miss, size)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		rig = r
		res.setupS = append(res.setupS, took.Seconds())
	}
	defer rig.close()
	res.handshakeMS = rig.handshakeMS
	rig.tr.resetBacklog()

	openDur := time.Duration(seconds) * time.Second / 2
	closedDur := time.Duration(seconds)*time.Second - openDur

	// Phase A: latency at a fixed offered rate.
	startNS, late, err := rig.openLoop(size.openRate, openDur)
	if err != nil {
		return nil, err
	}
	var samples []sample
	var pooled []float64
	for _, rs := range rig.tr.take() {
		if rs.failed {
			continue
		}
		lat := rs.poNS - rs.dueNS
		samples = append(samples, sample{dueNS: rs.dueNS - startNS, latNS: lat})
		pooled = append(pooled, float64(lat)/1e3)
	}
	res.openSetups = len(samples)
	res.p50, res.p99, res.minWindowN = medianOf(windowed(samples, int64(time.Second), int(openDur/time.Second)))
	sort.Float64s(pooled)
	res.p999 = percentile(pooled, 99.9)
	lateUS := make([]float64, len(late))
	for i, l := range late {
		lateUS[i] = float64(l) / 1e3
	}
	sort.Float64s(lateUS)
	res.lateP99US = percentile(lateUS, 99)
	res.backlogMax = rig.tr.resetBacklog()
	// Memory is read here, after a number of setups that is the same on
	// every run and every commit; the closed loop below completes more
	// setups, and so holds more sessions, the faster the daemon is.
	if res.peakRSSMB, err = peakRSSMB(rig.d.cmd.Process.Pid); err != nil {
		return nil, err
	}

	// Phase B: throughput with a fixed number of setups in flight.
	cpu0, err := cpuTime(rig.d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	gen0 := selfCPU()
	fm0 := rig.sw[0].flowMods.Load() + rig.sw[1].flowMods.Load()
	startNS, err = rig.closedLoop(size.outstanding, 0, closedDur)
	if err != nil {
		return nil, err
	}
	cpu1, err := cpuTime(rig.d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	gen1 := selfCPU()
	fm1 := rig.sw[0].flowMods.Load() + rig.sw[1].flowMods.Load()
	// Validated setups per second, as the median over the phase's 1-s
	// windows, which a stall of the host in one window does not move.
	perWindow := make([]float64, int(closedDur/time.Second))
	all := 0
	for _, rs := range rig.tr.take() {
		if rs.failed {
			continue
		}
		all++
		if w := int((rs.validNS - startNS) / int64(time.Second)); w < len(perWindow) {
			perWindow[w]++
			res.closedSetups++
		}
	}
	res.setupsPerS = median(perWindow)
	if all > 0 {
		res.cpuUSPerSet = float64((cpu1 - cpu0).Microseconds()) / float64(all)
		res.genUSPerSet = float64((gen1 - gen0).Microseconds()) / float64(all)
		res.fmsPerSetup = float64(fm1-fm0) / float64(all)
	}

	if err := rig.d.dead(); err != nil {
		return nil, err
	}
	res.attempted, res.failed, res.unexpected, res.firstErr = rig.tr.totals()
	res.otherPacketIns = 2*size.hosts + int(rig.sw[0].lldpRelayed.Load()+rig.sw[1].lldpRelayed.Load())
	return res, nil
}
