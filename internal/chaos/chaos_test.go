package chaos

import (
	"testing"
	"time"

	"livesec/internal/openflow"
	"livesec/internal/sim"
)

// fakeConn records what crosses the wrapped transport: a decoded copy of
// each message, since a Conn keeps no message past its send.
type fakeConn struct {
	sent    []openflow.Message
	handler func(openflow.Message)
}

func (f *fakeConn) Send(m openflow.Message) { f.SendBatch([]openflow.Message{m}) }
func (f *fakeConn) SendBatch(ms []openflow.Message) {
	for _, m := range ms {
		kept, err := openflow.Decode(openflow.Encode(m))
		if err != nil {
			panic(err)
		}
		f.sent = append(f.sent, kept)
	}
}
func (f *fakeConn) SetHandler(fn func(openflow.Message)) { f.handler = fn }
func (f *fakeConn) Close() error                         { return nil }

func newWrapped(t *testing.T) (*Injector, *Channel, *fakeConn, *[]openflow.Message) {
	t.Helper()
	eng := sim.NewEngine(1)
	in := NewInjector(eng)
	fc := &fakeConn{}
	ch := in.WrapConn(7, fc)
	var received []openflow.Message
	ch.SetHandler(func(m openflow.Message) { received = append(received, m) })
	return in, ch, fc, &received
}

func echo(x uint32) openflow.Message { return &openflow.EchoRequest{XID: x} }

func TestChannelCleanPassthrough(t *testing.T) {
	in, ch, fc, received := newWrapped(t)
	for i := uint32(1); i <= 5; i++ {
		ch.Send(echo(i))
		fc.handler(echo(100 + i))
	}
	if len(fc.sent) != 5 || len(*received) != 5 {
		t.Fatalf("clean channel altered traffic: sent=%d received=%d", len(fc.sent), len(*received))
	}
	if s := ch.Stats(); s != (ChannelStats{}) {
		t.Fatalf("clean channel recorded faults: %+v", s)
	}
	if in.Channel(7) != ch {
		t.Fatalf("WrapConn did not register the channel")
	}
}

func TestChannelDown(t *testing.T) {
	_, ch, fc, received := newWrapped(t)
	ch.SetDown(true)
	ch.Send(echo(1))
	ch.SendBatch([]openflow.Message{echo(2), echo(3)})
	fc.handler(echo(4))
	if len(fc.sent) != 0 || len(*received) != 0 {
		t.Fatalf("down channel leaked: sent=%d received=%d", len(fc.sent), len(*received))
	}
	s := ch.Stats()
	if s.TxDropped != 3 || s.RxDropped != 1 {
		t.Fatalf("drop counters wrong: %+v", s)
	}
	ch.SetDown(false)
	ch.Send(echo(5))
	if len(fc.sent) != 1 {
		t.Fatalf("restored channel still dropping")
	}
}

func TestChannelDropEveryDeterministic(t *testing.T) {
	_, ch, fc, _ := newWrapped(t)
	ch.SetDropEvery(3)
	for i := uint32(1); i <= 9; i++ {
		ch.Send(echo(i))
	}
	// Messages 3, 6, 9 are dropped.
	if len(fc.sent) != 6 {
		t.Fatalf("dropEvery=3 over 9 messages: sent %d, want 6", len(fc.sent))
	}
	for _, m := range fc.sent {
		if x := m.(*openflow.EchoRequest).XID; x%3 == 0 {
			t.Fatalf("message %d should have been dropped", x)
		}
	}
	if s := ch.Stats(); s.TxDropped != 3 {
		t.Fatalf("TxDropped=%d, want 3", s.TxDropped)
	}
}

func TestChannelDupEvery(t *testing.T) {
	_, ch, fc, received := newWrapped(t)
	ch.SetDupEvery(2)
	ch.SendBatch([]openflow.Message{echo(1), echo(2), echo(3), echo(4)})
	// Messages 2 and 4 are duplicated: 6 total.
	if len(fc.sent) != 6 {
		t.Fatalf("dupEvery=2 over 4 messages: sent %d, want 6", len(fc.sent))
	}
	fc.handler(echo(10))
	fc.handler(echo(11))
	if len(*received) != 3 { // second rx message duplicated
		t.Fatalf("rx duplication: received %d, want 3", len(*received))
	}
	s := ch.Stats()
	if s.TxDuplicated != 2 || s.RxDuplicated != 1 {
		t.Fatalf("dup counters wrong: %+v", s)
	}
}

// fakeLink and fakeElement record injector calls.
type fakeLink struct{ log []string }

func (f *fakeLink) SetUp(up bool) {
	if up {
		f.log = append(f.log, "up")
	} else {
		f.log = append(f.log, "down")
	}
}
func (f *fakeLink) SetRateScale(float64) { f.log = append(f.log, "scale") }

type fakeElement struct{ log []string }

func (f *fakeElement) Crash()              { f.log = append(f.log, "crash") }
func (f *fakeElement) Restore()            { f.log = append(f.log, "restore") }
func (f *fakeElement) SetSlowdown(float64) { f.log = append(f.log, "slow") }
func (f *fakeElement) SetWedged(w bool)    { f.log = append(f.log, "wedge") }

func TestInjectorSchedule(t *testing.T) {
	eng := sim.NewEngine(1)
	in := NewInjector(eng)
	l := &fakeLink{}
	el := &fakeElement{}
	in.RegisterLink(1, l)
	in.RegisterElement(9, el)

	p := NewPlan().
		LinkDown(10*time.Millisecond, 1).
		SECrash(20*time.Millisecond, 9).
		LinkUp(30*time.Millisecond, 1).
		SERestart(40*time.Millisecond, 9).
		SwitchDisconnect(50*time.Millisecond, 999) // unregistered: logged, ignored
	in.Schedule(p)
	if err := eng.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}

	if got, want := len(in.Applied()), 5; got != want {
		t.Fatalf("applied %d faults, want %d", got, want)
	}
	for i, a := range in.Applied() {
		if a.At != time.Duration(i+1)*10*time.Millisecond {
			t.Fatalf("fault %d applied at %v", i, a.At)
		}
	}
	if len(l.log) != 2 || l.log[0] != "down" || l.log[1] != "up" {
		t.Fatalf("link calls: %v", l.log)
	}
	if len(el.log) != 2 || el.log[0] != "crash" || el.log[1] != "restore" {
		t.Fatalf("element calls: %v", el.log)
	}

	// A channel fault and a link fault sharing a timestamp fire, and are
	// logged, in plan order — whichever comes first in the plan.
	const at = 10 * time.Millisecond
	for _, chanFirst := range []bool{true, false} {
		eng := sim.NewEngine(1)
		in := NewInjector(eng)
		ch := in.WrapConn(7, &fakeConn{})
		l := &orderLink{ch: ch}
		in.RegisterLink(1, l)
		p, want := NewPlan().LinkDown(at, 1).SwitchDisconnect(at, 7), []Kind{LinkDown, SwitchDisconnect}
		if chanFirst {
			p, want = NewPlan().SwitchDisconnect(at, 7).LinkDown(at, 1), []Kind{SwitchDisconnect, LinkDown}
		}
		in.Schedule(p)
		if err := eng.Run(at); err != nil {
			t.Fatal(err)
		}
		if !ch.Down() || !l.fired {
			t.Fatalf("chanFirst=%v: channel down=%v link fired=%v, want both", chanFirst, ch.Down(), l.fired)
		}
		if l.chanWasDown != chanFirst {
			t.Fatalf("chanFirst=%v: link fault saw channel down=%v", chanFirst, l.chanWasDown)
		}
		got := in.Applied()
		if len(got) != 2 || got[0].Kind != want[0] || got[1].Kind != want[1] || got[0].At != at || got[1].At != at {
			t.Fatalf("chanFirst=%v: applied %+v, want %v at %v", chanFirst, got, want, at)
		}
	}
}

// orderLink records whether ch was already down when the link fault fired.
type orderLink struct {
	ch          *Channel
	fired       bool
	chanWasDown bool
}

func (o *orderLink) SetUp(bool)           { o.fired, o.chanWasDown = true, o.ch.Down() }
func (o *orderLink) SetRateScale(float64) {}

func TestEmptyPlanSchedulesNothing(t *testing.T) {
	eng := sim.NewEngine(1)
	in := NewInjector(eng)
	in.Schedule(nil)
	in.Schedule(NewPlan())
	if err := eng.Run(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(in.Applied()) != 0 {
		t.Fatalf("empty plan applied faults: %v", in.Applied())
	}
}

func TestPlanBuilders(t *testing.T) {
	p := NewPlan().
		SwitchReconnect(time.Second, 3).
		LinkDegrade(2*time.Second, 4, 0.1).
		LinkRestore(3*time.Second, 4).
		SESlow(4*time.Second, 5, 10).
		SENormal(5*time.Second, 5).
		SEWedge(6*time.Second, 5).
		SEUnwedge(7*time.Second, 5).
		CtrlDrop(8*time.Second, 3, 2).
		CtrlDup(9*time.Second, 3, 3)
	evs := p.Events()
	wantKinds := []Kind{SwitchReconnect, LinkDegrade, LinkRestore, SESlow,
		SENormal, SEWedge, SEUnwedge, CtrlDrop, CtrlDup}
	if len(evs) != len(wantKinds) {
		t.Fatalf("got %d events, want %d", len(evs), len(wantKinds))
	}
	for i, ev := range evs {
		if ev.Kind != wantKinds[i] {
			t.Fatalf("event %d kind %v, want %v", i, ev.Kind, wantKinds[i])
		}
		if ev.Kind.String() == "unknown" {
			t.Fatalf("kind %d has no name", ev.Kind)
		}
	}
	if evs[1].Factor != 0.1 || evs[7].N != 2 || evs[8].N != 3 {
		t.Fatalf("builder parameters lost: %+v", evs)
	}
}

func TestChannelTypeScopedDrop(t *testing.T) {
	_, ch, fc, received := newWrapped(t)
	ch.SetDropEvery(2)
	ch.SetDropType(openflow.TypePacketIn)
	// Interleave echoes with packet-ins switch→controller: the scope must
	// count only packet-ins, leaving echo traffic completely untouched.
	for i := 0; i < 6; i++ {
		fc.handler(&openflow.PacketIn{XID: uint32(i)})
		fc.handler(echo(uint32(100 + i)))
	}
	var echoes, pis int
	for _, m := range *received {
		switch m.(type) {
		case *openflow.EchoRequest:
			echoes++
		case *openflow.PacketIn:
			pis++
		}
	}
	if echoes != 6 {
		t.Fatalf("type-scoped drop perturbed echo traffic: %d/6 delivered", echoes)
	}
	if pis != 3 {
		t.Fatalf("drop every 2nd packet-in: %d/6 delivered, want 3", pis)
	}
	if s := ch.Stats(); s.RxDropped != 3 {
		t.Fatalf("RxDropped=%d, want 3", s.RxDropped)
	}
}

func TestChannelTypeScopedDup(t *testing.T) {
	_, ch, fc, _ := newWrapped(t)
	ch.SetDupEvery(2)
	ch.SetDupType(openflow.TypeEchoRequest)
	ch.SendBatch([]openflow.Message{
		echo(1), &openflow.PacketIn{XID: 10}, echo(2),
		&openflow.PacketIn{XID: 11}, echo(3), echo(4),
	})
	// Echoes 2 and 4 (the 2nd and 4th echo) duplicate; packet-ins never.
	if len(fc.sent) != 8 {
		t.Fatalf("sent %d messages, want 8", len(fc.sent))
	}
	if s := ch.Stats(); s.TxDuplicated != 2 || s.TxDropped != 0 {
		t.Fatalf("dup counters wrong: %+v", s)
	}
}

// fakeFlooder records flood control calls.
type fakeFlooder struct{ log []int }

func (f *fakeFlooder) StartFlood(pps int) { f.log = append(f.log, pps) }
func (f *fakeFlooder) StopFlood()         { f.log = append(f.log, 0) }

func TestInjectorFlood(t *testing.T) {
	eng := sim.NewEngine(1)
	in := NewInjector(eng)
	f := &fakeFlooder{}
	in.RegisterFlooder(3, f)
	in.Schedule(NewPlan().
		FloodStart(10*time.Millisecond, 3, 500).
		FloodStop(20*time.Millisecond, 3).
		FloodStart(30*time.Millisecond, 99, 1)) // unregistered: logged, ignored
	if err := eng.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(f.log) != 2 || f.log[0] != 500 || f.log[1] != 0 {
		t.Fatalf("flooder calls: %v", f.log)
	}
	if got := len(in.Applied()); got != 3 {
		t.Fatalf("applied %d events, want 3", got)
	}
}

func TestPlanTypeScopedBuilders(t *testing.T) {
	p := NewPlan().
		CtrlDropType(time.Second, 3, 2, openflow.TypePacketIn).
		CtrlDupType(2*time.Second, 3, 4, openflow.TypeEchoReply)
	evs := p.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Kind != CtrlDrop || evs[0].MsgType != openflow.TypePacketIn || evs[0].N != 2 {
		t.Fatalf("CtrlDropType event: %+v", evs[0])
	}
	if evs[1].Kind != CtrlDup || evs[1].MsgType != openflow.TypeEchoReply || evs[1].N != 4 {
		t.Fatalf("CtrlDupType event: %+v", evs[1])
	}
}

// fakeControlPlane records outage calls.
type fakeControlPlane struct{ log []string }

func (f *fakeControlPlane) Fail()    { f.log = append(f.log, "fail") }
func (f *fakeControlPlane) Recover() { f.log = append(f.log, "recover") }

func TestInjectorControllerOutage(t *testing.T) {
	eng := sim.NewEngine(1)
	in := NewInjector(eng)
	// Before registration the fault is logged and ignored.
	in.Apply(Event{Kind: ControllerDown})
	cp := &fakeControlPlane{}
	in.RegisterController(cp)
	in.Schedule(NewPlan().
		ControllerDown(10 * time.Millisecond).
		ControllerUp(20 * time.Millisecond))
	if err := eng.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(cp.log) != 2 || cp.log[0] != "fail" || cp.log[1] != "recover" {
		t.Fatalf("controller calls: %v", cp.log)
	}
	applied := in.Applied()
	if len(applied) != 3 || applied[1].At != 10*time.Millisecond || applied[2].Kind.String() != "controller-up" {
		t.Fatalf("applied: %+v", applied)
	}
}
