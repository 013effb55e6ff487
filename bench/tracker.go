package main

import (
	"fmt"
	"sync"
	"time"

	"livesec/internal/flow"
	"livesec/internal/openflow"
)

// setupTimeout is how long a setup may wait for its PacketOut before it
// counts as failed.
const setupTimeout = time.Second

// setupRec is one offered setup until it is validated or fails.
type setupRec struct {
	in     setupInput
	exp    [4]expectedFM
	seen   [4]bool
	dueNS  int64 // when it was due, ns since the tracker's epoch
	sentNS int64 // when the send began
	poNS   int64 // when the PacketOut was read; 0 before
	bad    string
}

func (r *setupRec) fmLeft() int {
	n := 0
	for _, s := range r.seen {
		if !s {
			n++
		}
	}
	return n
}

// result is one retired setup.
type result struct {
	dueNS   int64
	poNS    int64 // PacketOut read; 0 if it never came
	validNS int64 // last expected message read
	failed  bool
}

// tracker matches what the controller sends against what each offered
// setup must produce: on the ingress connection a PacketOut echoing the
// BufferID behind that switch's flow-mods, and across both connections
// the four exact-match entries of the session. A setup is valid once
// all five arrived and were right; it fails on a wrong message or after
// setupTimeout.
type tracker struct {
	epoch time.Time

	mu          sync.Mutex
	byBuf       [2]map[uint32]*setupRec
	byKey       map[flow.Key]*setupRec
	results     []result
	outstanding int // offered, PacketOut not yet read
	backlogMax  int
	attempted   int
	failed      int
	unexpected  int // messages that match no offered setup
	firstErr    string
	answered    [2]int // readiness probes answered, per switch

	// tokens, when set, receives the ingress switch index each time a
	// setup's PacketOut is read or it times out: the moment a closed
	// loop may offer that switch's next setup. Readiness probes take no
	// token and return none.
	tokens chan int
}

func newTracker() *tracker {
	t := &tracker{epoch: time.Now(), byKey: make(map[flow.Key]*setupRec)}
	for i := range t.byBuf {
		t.byBuf[i] = make(map[uint32]*setupRec)
	}
	return t
}

func (t *tracker) now() int64 { return int64(time.Since(t.epoch)) }

// offer registers a setup that is about to be sent.
func (t *tracker) offer(in setupInput, dueNS, sentNS int64) {
	rec := &setupRec{in: in, exp: in.expected(), dueNS: dueNS, sentNS: sentNS}
	t.mu.Lock()
	for _, e := range rec.exp {
		t.byKey[e.key] = rec
	}
	t.byBuf[in.sw][in.id] = rec
	t.attempted++
	t.outstanding++
	if t.outstanding > t.backlogMax {
		t.backlogMax = t.outstanding
	}
	t.mu.Unlock()
}

func (t *tracker) noteErr(format string, a ...any) {
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf(format, a...)
	}
}

// outputsTo reports whether the action list is a single output to port.
func outputsTo(actions []openflow.Action, port uint32) bool {
	if len(actions) != 1 {
		return false
	}
	out, ok := actions[0].(openflow.ActionOutput)
	return ok && out.Port == port
}

// flowMod checks one flow-mod read on switch sw.
func (t *tracker) flowMod(sw int, fm *openflow.FlowMod, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := t.byKey[fm.Match.Key]
	if rec == nil {
		t.unexpected++
		t.noteErr("flow-mod on switch %d matches no offered setup: %s", sw, fm.Match)
		return
	}
	delete(t.byKey, fm.Match.Key)
	for i, want := range rec.exp {
		if want.key != fm.Match.Key {
			continue
		}
		rec.seen[i] = true
		switch {
		case !fm.Match.IsExact():
			rec.bad = "flow-mod match is not exact: " + fm.Match.String()
		case sw != want.sw:
			rec.bad = fmt.Sprintf("flow-mod %s arrived on switch %d, want %d", fm.Match, sw, want.sw)
		case fm.Command != openflow.FlowAdd || fm.Priority != want.priority:
			rec.bad = fmt.Sprintf("flow-mod command %d priority %d, want add at %d", fm.Command, fm.Priority, want.priority)
		case !outputsTo(fm.Actions, want.outPort):
			rec.bad = fmt.Sprintf("flow-mod actions %v, want output to %d", fm.Actions, want.outPort)
		}
	}
	t.settle(rec, at)
}

// packetOut checks the buffered-packet release read on switch sw.
func (t *tracker) packetOut(sw int, po *openflow.PacketOut, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := t.byBuf[sw][po.BufferID]
	if rec == nil || rec.poNS != 0 {
		t.unexpected++
		t.noteErr("packet-out on switch %d echoes unknown buffer %d", sw, po.BufferID)
		return
	}
	rec.poNS = int64(at.Sub(t.epoch))
	if po.InPort != rec.in.src.port || !outputsTo(po.Actions, uplinkPort) {
		rec.bad = fmt.Sprintf("packet-out in_port %d actions %v, want in_port %d output to %d",
			po.InPort, po.Actions, rec.in.src.port, uplinkPort)
	}
	for i, e := range rec.exp {
		if e.sw == sw && !rec.seen[i] && rec.bad == "" {
			rec.bad = "packet-out overtook a flow-mod of its own switch"
		}
	}
	t.outstanding--
	if t.tokens != nil && !rec.in.probe {
		t.tokens <- sw
	}
	t.settle(rec, at)
}

// settle retires rec once its PacketOut was read and either every
// flow-mod arrived or something was wrong. A setup that went bad before
// its PacketOut stays until that arrives or it times out, so a closed
// loop gets its token back exactly once. Called with mu held.
func (t *tracker) settle(rec *setupRec, at time.Time) {
	if rec.poNS == 0 || (rec.fmLeft() > 0 && rec.bad == "") {
		return
	}
	t.retire(rec, int64(at.Sub(t.epoch)), false)
}

// retire removes rec and records its result. Called with mu held.
func (t *tracker) retire(rec *setupRec, nowNS int64, timedOut bool) {
	delete(t.byBuf[rec.in.sw], rec.in.id)
	for _, e := range rec.exp {
		if t.byKey[e.key] == rec {
			delete(t.byKey, e.key)
		}
	}
	if rec.in.probe && rec.bad == "" {
		// An unanswered probe was dropped as unroutable, which is the
		// answer "not ready yet"; only an answered one is an operation.
		if timedOut {
			t.attempted--
		} else {
			t.answered[rec.in.sw]++
		}
		return
	}
	failed := timedOut || rec.bad != ""
	if failed {
		t.failed++
		why := rec.bad
		if why == "" {
			why = fmt.Sprintf("%d of 5 replies missing after %v", rec.fmLeft()+b2i(rec.poNS == 0), setupTimeout)
		}
		t.noteErr("setup %d on switch %d: %s", rec.in.id, rec.in.sw, why)
	}
	t.results = append(t.results, result{dueNS: rec.dueNS, poNS: rec.poNS, validNS: nowNS, failed: failed})
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// reap fails every setup older than setupTimeout. A phase runs it
// periodically while in flight and once when it ends.
func (t *tracker) reap() {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	for sw := range t.byBuf {
		for _, rec := range t.byBuf[sw] {
			if now-rec.sentNS < int64(setupTimeout) {
				continue
			}
			if rec.poNS == 0 {
				t.outstanding--
				if t.tokens != nil && !rec.in.probe {
					t.tokens <- sw
				}
			}
			t.retire(rec, now, true)
		}
	}
}

// pending reports setups not yet retired.
func (t *tracker) pending() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byBuf[0]) + len(t.byBuf[1])
}

// take returns and clears the results recorded so far.
func (t *tracker) take() []result {
	t.mu.Lock()
	defer t.mu.Unlock()
	rs := t.results
	t.results = nil
	return rs
}

// probeAnswered reports whether a readiness probe from switch sw has
// been answered correctly.
func (t *tracker) probeAnswered(sw int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.answered[sw] > 0
}

// totals returns the run's counts so far and the first failure.
func (t *tracker) totals() (attempted, failed, unexpected int, firstErr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed, t.unexpected, t.firstErr
}

// resetBacklog returns the most setups that were in flight at once
// since the last call.
func (t *tracker) resetBacklog() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.backlogMax
	t.backlogMax = t.outstanding
	return m
}
