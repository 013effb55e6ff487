package openflow

import (
	"net"
	"testing"
	"time"

	"livesec/internal/sim"
)

// A batch arrives as one event: all messages share the arrival time and
// keep their send order.
func TestSimSendBatchOrderAndTiming(t *testing.T) {
	eng := sim.NewEngine(1)
	a, b := SimPipe(eng, time.Millisecond)
	var types []MsgType
	var at []time.Duration
	b.SetHandler(func(m Message) {
		types = append(types, m.Type())
		at = append(at, eng.Now())
	})
	eng.Schedule(0, func() {
		SendAll(a,
			&FlowMod{XID: 1, Command: FlowAdd},
			&FlowMod{XID: 2, Command: FlowAdd},
			&PacketOut{XID: 3, BufferID: NoBuffer},
			&BarrierRequest{XID: 4},
		)
	})
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	want := []MsgType{TypeFlowMod, TypeFlowMod, TypePacketOut, TypeBarrierRequest}
	if len(types) != len(want) {
		t.Fatalf("got %d messages, want %d", len(types), len(want))
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("message %d: got %v, want %v", i, types[i], want[i])
		}
		if at[i] != time.Millisecond {
			t.Fatalf("message %d delivered at %v, want 1ms", i, at[i])
		}
	}
}

// Batched and sequential sends are observationally identical to the
// receiver (same messages, same arrival time), so batching cannot change
// simulated experiment timing.
func TestSimSendBatchEquivalentToSends(t *testing.T) {
	run := func(batched bool) (types []MsgType, at []time.Duration) {
		eng := sim.NewEngine(1)
		a, b := SimPipe(eng, 250*time.Microsecond)
		b.SetHandler(func(m Message) {
			types = append(types, m.Type())
			at = append(at, eng.Now())
		})
		ms := []Message{&Hello{XID: 1}, &FlowMod{XID: 2}, &BarrierRequest{XID: 3}}
		eng.Schedule(0, func() {
			if batched {
				a.SendBatch(ms)
			} else {
				for _, m := range ms {
					a.Send(m)
				}
			}
		})
		if err := eng.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		return
	}
	bt, ba := run(true)
	st, sa := run(false)
	if len(bt) != len(st) {
		t.Fatalf("batched delivered %d, sequential %d", len(bt), len(st))
	}
	for i := range bt {
		if bt[i] != st[i] || ba[i] != sa[i] {
			t.Fatalf("message %d: batched (%v@%v) vs sequential (%v@%v)",
				i, bt[i], ba[i], st[i], sa[i])
		}
	}
}

func TestSimSendBatchClosedPeerDrops(t *testing.T) {
	eng := sim.NewEngine(1)
	a, b := SimPipe(eng, 0)
	got := 0
	b.SetHandler(func(Message) { got++ })
	_ = b.Close()
	eng.Schedule(0, func() { a.SendBatch([]Message{&Hello{}, &Hello{}}) })
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatal("batch delivered to closed conn")
	}
}

func TestNetConnSendBatchOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan []Message, 1)
	go func() {
		sc, err := ln.Accept()
		if err != nil {
			return
		}
		conn := NewNetConn(sc)
		var got []Message
		gotAll := make(chan struct{})
		conn.SetHandler(func(m Message) {
			got = append(got, m)
			if len(got) == 3 {
				close(gotAll)
			}
		})
		select {
		case <-gotAll:
		case <-time.After(5 * time.Second):
		}
		done <- got
	}()
	cc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := NewNetConn(cc)
	defer conn.Close()
	conn.SetHandler(func(Message) {})
	SendAll(conn,
		&FlowMod{XID: 1, Command: FlowAdd, Priority: 10},
		&FlowMod{XID: 2, Command: FlowAdd, Priority: 20},
		&BarrierRequest{XID: 3},
	)
	got := <-done
	if len(got) != 3 {
		t.Fatalf("received %d messages, want 3", len(got))
	}
	if got[0].(*FlowMod).XID != 1 || got[1].(*FlowMod).XID != 2 || got[2].(*BarrierRequest).XID != 3 {
		t.Fatalf("batch order mangled: %#v", got)
	}
}
