package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"sort"
	"time"

	"livesec"
	"livesec/internal/netpkt"
)

// simSize sizes a simulator workload. The full sizes are fixed here;
// tests build smaller ones.
type simSize struct {
	fit     livesec.FITOptions
	churn   bool
	rules   int           // never-matching policy rules ahead of the chain rule
	userBps int64         // bulk: per-user offered rate
	flowsPS int           // churn: new flows per user per second
	warmup  time.Duration // simulated, untimed, part of set-up
	perSec  time.Duration // simulated time in the window per measuring second
	attacks int           // attacks embedded in the window
	setups  int           // how many times set-up is measured
	replay  replayCalls
}

// The window is a fixed amount of simulated time per measuring second,
// chosen so that at 20 measuring seconds the window costs about 15 host
// seconds on the 2-core reference box at the commit that added the
// benchmark. It must not adapt to the host: a faster simulator has to
// show as a shorter sim_wall_s, not as more work.
var (
	fullBulk = simSize{fit: livesec.FullFIT(), userBps: 12_000_000,
		warmup: time.Second, perSec: 2 * time.Second,
		attacks: 10, setups: 7, replay: fullReplay}
	fullChurn = simSize{fit: livesec.FullFIT(), churn: true, rules: 20000, flowsPS: 400,
		warmup: 100 * time.Millisecond, perSec: 125 * time.Millisecond,
		setups: 7, replay: fullReplay}
)

const (
	segmentBytes  = 1500
	tcpBulk       = segmentBytes - 54 // BulkLen giving a 1500-byte TCP frame
	bulkPortBase  = 40000             // user u streams from bulkPortBase+u
	churnPortBase = 10000             // a user's k-th flow leaves churnPortBase+k
	attackPort0   = 61000
	directPort0   = 2000 // churn's unchained flows go to directPort0 + (k/2)%directPorts
	directPorts   = 1024
	settle        = 600 * time.Millisecond // element heartbeats after Discover
)

// payloadMix is what the users' segments carry where the inspectors
// look: request and response heads, an opaque record and a binary blob.
func payloadMix(rng *rand.Rand) [][]byte {
	blob := make([]byte, 96)
	rng.Read(blob)
	return [][]byte{
		[]byte("GET /index.html HTTP/1.1\r\nHost: www.example.edu\r\nUser-Agent: bench\r\n\r\n"),
		[]byte("HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 1380\r\n\r\n<html><body>"),
		[]byte("\x17\x03\x03\x05\x78 opaque application record, nothing for a signature to find"),
		blob,
	}
}

var attackNames = []string{"sql-injection", "dir-traversal", "shell-upload"}

// simRig is one built, discovered and warmed deployment with its
// traffic sources.
type simRig struct {
	size  simSize
	f     *livesec.FITNetwork
	users []*livesec.Host
	index map[livesec.IPv4Addr]int // user address → index into users
	mix   [][]byte
	rng   *rand.Rand

	stopped bool
	sent    uint64 // workload segments or flows offered so far
	gotten  uint64 // of those, received at the gateway
	gotApp  uint64 // their application bytes

	// churn: when each user's k-th flow left, and the one-way times of
	// the flows the gateway has seen, in simulated ns.
	leftAt [][]time.Duration
	oneWay []time.Duration

	attacked int
}

// policyFor builds the workload's policy table: the never-matching
// per-user rules (microsegmentation entries for users that are not on
// the campus today) and, after them, "port 80 goes through L7 then IDS".
func policyFor(size simSize) (*livesec.PolicyTable, error) {
	pt := livesec.NewPolicyTable(livesec.Allow)
	for i := 0; i < size.rules; i++ {
		err := pt.Add(&livesec.PolicyRule{
			Name:     fmt.Sprintf("seg-%05d", i),
			Priority: 10,
			Match: livesec.PolicyMatch{
				User:    netpkt.MACFromUint64(0xB000000000 | uint64(i)),
				DstIP:   livesec.CIDR(172, 16, byte(i>>8), byte(i), 32),
				DstPort: 443,
			},
			Action: livesec.Deny,
		})
		if err != nil {
			return nil, err
		}
	}
	err := pt.Add(&livesec.PolicyRule{
		Name:     "web-chain",
		Priority: 5,
		Match:    livesec.PolicyMatch{DstPort: 80},
		Action:   livesec.Chain,
		Services: []livesec.ServiceType{livesec.ServiceL7, livesec.ServiceIDS},
	})
	return pt, err
}

// newSimRig performs one complete set-up: build the topology, run
// discovery, let the elements report in, start the users' traffic and
// run the simulated warm-up. It returns the rig, how long that took on
// the host, and the fingerprint of the simulation at that point.
func newSimRig(seed int64, size simSize) (*simRig, time.Duration, uint64, error) {
	start := time.Now()
	pt, err := policyFor(size)
	if err != nil {
		return nil, 0, 0, err
	}
	f, err := livesec.BuildFIT(size.fit, livesec.Options{Seed: seed, Policies: pt, Monitor: true})
	if err != nil {
		return nil, 0, 0, err
	}
	r := &simRig{size: size, f: f, index: make(map[livesec.IPv4Addr]int),
		rng: rand.New(rand.NewSource(seed))}
	r.mix = payloadMix(r.rng)
	r.users = append(append(r.users, f.WiredUsers...), f.WirelessUsers...)
	for i, u := range r.users {
		r.index[u.IP] = i
	}
	if err := f.Discover(); err != nil {
		return nil, 0, 0, err
	}
	if err := f.Run(settle); err != nil {
		return nil, 0, 0, err
	}
	r.listen()
	if size.churn {
		r.startChurn()
	} else {
		r.startBulk()
	}
	if err := f.Run(size.warmup); err != nil {
		return nil, 0, 0, err
	}
	return r, time.Since(start), r.fingerprint(), nil
}

// listen installs the gateway's receivers.
func (r *simRig) listen() {
	gw := r.f.Gateway
	onFlow := func(pkt *livesec.Packet) {
		sp := pkt.TCP.SrcPort
		switch {
		case sp >= attackPort0:
			// An attack segment; the element reports it and lets it by.
		case sp >= bulkPortBase:
			r.gotten++
			r.gotApp += uint64(pkt.PayloadLen())
		default:
			u, k := r.index[pkt.IP.Src], int(sp-churnPortBase)
			r.gotten++
			r.oneWay = append(r.oneWay, r.f.Eng.Now()-r.leftAt[u][k])
		}
	}
	gw.HandleTCP(80, onFlow)
	for p := 0; p < directPorts; p++ {
		gw.HandleTCP(uint16(directPort0+p), onFlow)
	}
}

// startBulk makes every user stream MTU segments to gateway:80 on one
// long-lived flow, at the configured rate, from a seeded start offset.
func (r *simRig) startBulk() {
	gap := time.Duration(int64(segmentBytes) * 8 * int64(time.Second) / r.size.userBps)
	for i, u := range r.users {
		u, sp, next := u, uint16(bulkPortBase+i), r.rng.Intn(len(r.mix))
		var tick func()
		tick = func() {
			if r.stopped {
				return
			}
			u.SendTCP(livesec.GatewayIP, sp, 80, r.mix[next%len(r.mix)], tcpBulk)
			next++
			r.sent++
			u.Schedule(gap, tick)
		}
		u.Schedule(time.Duration(r.rng.Int63n(int64(gap))), tick)
	}
}

// startChurn makes every user open one-packet flows on fresh source
// ports: odd ones to port 80 (chained), even ones to a port drawn from
// directPorts values (direct; a new selector, so the policy table is
// searched).
func (r *simRig) startChurn() {
	gap := time.Second / time.Duration(r.size.flowsPS)
	r.leftAt = make([][]time.Duration, len(r.users))
	for i, u := range r.users {
		i, u, k := i, u, 0
		off := r.rng.Intn(directPorts)
		var tick func()
		tick = func() {
			if r.stopped {
				return
			}
			dport := uint16(80)
			if k%2 == 0 {
				dport = uint16(directPort0 + (off+k/2)%directPorts)
			}
			r.leftAt[i] = append(r.leftAt[i], r.f.Eng.Now())
			u.SendTCP(livesec.GatewayIP, uint16(churnPortBase+k), dport, r.mix[(off+k)%len(r.mix)], 0)
			k++
			r.sent++
			u.Schedule(gap, tick)
		}
		u.Schedule(time.Duration(r.rng.Int63n(int64(gap))), tick)
	}
}

// scheduleAttacks embeds the window's attacks: seeded users, names and
// instants.
func (r *simRig) scheduleAttacks(window time.Duration) {
	for a := 0; a < r.size.attacks; a++ {
		u := r.users[r.rng.Intn(len(r.users))]
		name := attackNames[r.rng.Intn(len(attackNames))]
		sp := uint16(attackPort0 + a)
		// Leave the tail of the window for the report and the block.
		at := time.Duration(r.rng.Int63n(int64(window * 9 / 10)))
		u.Schedule(at, func() {
			_ = livesec.SendAttack(u, livesec.GatewayIP, name, sp)
			r.attacked++
		})
	}
}

// fingerprint hashes the simulation's observable state. Two runs of one
// seed must agree on it at every point they are compared.
func (r *simRig) fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|%d|", r.f.Controller.Stats(), r.f.Processed())
	for _, x := range r.f.Hosts {
		st := x.Stats()
		fmt.Fprintf(h, "%d,%d;", st.RxPackets, st.RxBytes)
	}
	for _, e := range r.f.Elements {
		fmt.Fprintf(h, "%d;", e.Stats().Packets)
	}
	counts := r.f.Store.Counts()
	types := make([]string, 0, len(counts))
	for t := range counts {
		types = append(types, string(t))
	}
	sort.Strings(types)
	for _, t := range types {
		fmt.Fprintf(h, "%s=%d;", t, counts[livesec.EventType(t)])
	}
	return h.Sum64()
}

// simCounts are the layers' public counters at one instant.
type simCounts struct {
	ctrl                 livesec.ControllerStats
	events               uint64 // monitoring events recorded
	simEvents            uint64 // simulator events executed
	linkPkts             uint64 // packets over any link that has an access switch at one end
	dpPkts, dpMisses     uint64 // switch pipeline runs, and those without an entry
	microHits, microMiss uint64
	tableMax             int // entries in the fullest flow table
	heapMax              int
	idsPkts, l7Pkts      uint64
	hostPkts             uint64
	now                  time.Duration
}

func (r *simRig) counts() simCounts {
	f := r.f
	c := simCounts{ctrl: f.Controller.Stats(), events: f.Store.TotalRecorded(),
		simEvents: f.Processed(), heapMax: f.Eng.MaxDepth(), now: f.Eng.Now()}
	for _, sw := range f.Switches {
		for _, no := range sw.Ports() {
			ps := sw.PortStats(no)
			c.linkPkts += ps.RxPackets + ps.TxPackets
		}
		c.dpPkts += sw.Lookups
		c.dpMisses += sw.TableMisses
		ms := sw.MicroflowStats()
		c.microHits += ms.Hits
		c.microMiss += ms.Misses
		c.tableMax = max(c.tableMax, sw.Table().Len())
	}
	for _, e := range f.IDSElements {
		c.idsPkts += e.Stats().Packets
	}
	for _, e := range f.L7Elements {
		c.l7Pkts += e.Stats().Packets
	}
	for _, h := range f.Hosts {
		st := h.Stats()
		c.hostPkts += st.RxPackets + st.TxPackets
	}
	return c
}

// simResult is what one simulator run measured.
type simResult struct {
	setupS      []float64
	wallS       float64 // host seconds for the window
	window      time.Duration
	ops         uint64  // segments (bulk) or flows (churn) offered in the window
	opsPerS     float64 // median over the window's slices
	goodputMbps float64 // simulated
	modelP99US  float64 // simulated
	peakRSSMB   float64
	fingerprint uint64
	attempted   int
	failed      int
	firstErr    string

	before, after simCounts // the layers' counters around the window
	policyRules   int
}

// runSim executes one simulator workload: size.setups set-ups (the last
// is kept), the timed window of fixed simulated length, and a drain.
func runSim(seed int64, size simSize, seconds int) (*simResult, error) {
	res := &simResult{}
	var rig *simRig
	var warmPrint uint64
	for i := 0; i < size.setups; i++ {
		r, took, fp, err := newSimRig(seed, size)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		if i > 0 && fp != warmPrint {
			return nil, fmt.Errorf("set-up %d of seed %d ended in state %#x, set-up 1 in %#x: the simulation is not deterministic", i+1, seed, fp, warmPrint)
		}
		if rig != nil {
			rig.f.Shutdown()
		}
		rig, warmPrint = r, fp
		res.setupS = append(res.setupS, took.Seconds())
	}
	f := rig.f
	res.policyRules = f.Controller.Policies().Len()
	fail := func(format string, a ...any) {
		if res.firstErr == "" {
			res.firstErr = fmt.Sprintf(format, a...)
		}
	}

	// The timed window.
	res.window = time.Duration(seconds) * size.perSec
	rig.scheduleAttacks(res.window)
	sent0, app0, flows0 := rig.sent, rig.gotApp, len(rig.oneWay)
	res.before = rig.counts()
	// One slice per measuring second. The window's rate is the median of
	// the slices' rates, which a stall of the host in one slice does not
	// move; sim_wall_s is the whole window, stalls included.
	rates := make([]float64, seconds)
	for i := range rates {
		s0, t0 := rig.sent, time.Now()
		if err := f.Run(size.perSec); err != nil {
			return nil, err
		}
		wall := time.Since(t0).Seconds()
		rates[i] = float64(rig.sent-s0) / wall
		res.wallS += wall
	}
	res.opsPerS = median(rates)
	res.after = rig.counts()
	res.ops = rig.sent - sent0
	res.goodputMbps = float64(rig.gotApp-app0) * 8 / res.window.Seconds() / 1e6
	if size.churn {
		lat := make([]float64, 0, len(rig.oneWay)-flows0)
		for _, d := range rig.oneWay[flows0:] {
			lat = append(lat, float64(d)/1e3)
		}
		sort.Float64s(lat)
		res.modelP99US = percentile(lat, 99)
	}

	// Drain: every offered segment or flow must reach the gateway.
	rig.stopped = true
	if err := f.Run(100 * time.Millisecond); err != nil {
		return nil, err
	}
	res.attempted = int(rig.sent) + size.attacks
	if rig.gotten != rig.sent {
		res.failed += int(rig.sent - rig.gotten)
		fail("%d of %d offered units never reached the gateway", rig.sent-rig.gotten, rig.sent)
	}

	// Oracles over the whole run.
	st := f.Controller.Stats()
	idsPkts, l7Pkts := res.after.idsPkts, res.after.l7Pkts // since the deployment was built
	attacks, blocks := f.Store.Count(livesec.EventAttack), f.Store.Count(livesec.EventBlocked)
	switch {
	case st.FlowsChained == 0:
		fail("no flow was chained")
	case idsPkts == 0 || l7Pkts == 0:
		fail("an element class stayed idle: IDS saw %d packets, L7 %d", idsPkts, l7Pkts)
	case rig.attacked != size.attacks || attacks != uint64(size.attacks) || blocks != uint64(size.attacks):
		fail("%d attacks sent, %d detected, %d blocked, want %d of each", rig.attacked, attacks, blocks, size.attacks)
	}
	if res.firstErr != "" && res.failed == 0 {
		res.failed = res.attempted // a failed oracle fails the workload as a whole
	}
	res.fingerprint = rig.fingerprint()
	var err error
	res.peakRSSMB, err = peakRSSMB(os.Getpid())
	return res, err
}
