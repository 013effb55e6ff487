package openflow

import (
	"bytes"
	"net"
	"testing"
	"time"

	"livesec/internal/sim"
)

func TestSimPipeDeliversWithLatency(t *testing.T) {
	eng := sim.NewEngine(1)
	a, b := SimPipe(eng, 500*time.Microsecond)
	var gotAt time.Duration
	var got Message
	b.SetHandler(func(m Message) {
		got = m
		gotAt = eng.Now()
	})
	eng.Schedule(0, func() { a.Send(&EchoRequest{XID: 9, Data: []byte("hi")}) })
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Type() != TypeEchoRequest {
		t.Fatalf("got %v", got)
	}
	if gotAt != 500*time.Microsecond {
		t.Fatalf("delivered at %v, want 500µs", gotAt)
	}
	if string(got.(*EchoRequest).Data) != "hi" {
		t.Fatalf("payload mangled: %q", got.(*EchoRequest).Data)
	}
}

func TestSimPipeBidirectional(t *testing.T) {
	eng := sim.NewEngine(1)
	a, b := SimPipe(eng, time.Millisecond)
	var aGot, bGot int
	a.SetHandler(func(m Message) { aGot++ })
	b.SetHandler(func(m Message) {
		bGot++
		b.Send(&EchoReply{XID: m.(*EchoRequest).XID})
	})
	eng.Schedule(0, func() { a.Send(&EchoRequest{XID: 1}) })
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if aGot != 1 || bGot != 1 {
		t.Fatalf("aGot=%d bGot=%d", aGot, bGot)
	}
}

func TestSimPipeClosedDrops(t *testing.T) {
	eng := sim.NewEngine(1)
	a, b := SimPipe(eng, 0)
	got := 0
	b.SetHandler(func(Message) { got++ })
	_ = b.Close()
	eng.Schedule(0, func() { a.Send(&Hello{}) })
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatal("message delivered to closed conn")
	}
}

func TestNetConnOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	serverGot := make(chan Message, 10)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		conn := NewNetConn(c)
		conn.SetHandler(func(m Message) {
			serverGot <- m
			if m.Type() == TypeFeaturesRequest {
				conn.Send(&FeaturesReply{XID: m.(*FeaturesRequest).XID, DPID: 42})
			}
		})
	}()

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	client := NewNetConn(c)
	clientGot := make(chan Message, 10)
	client.SetHandler(func(m Message) { clientGot <- m })

	client.Send(&Hello{XID: 1})
	client.Send(&FeaturesRequest{XID: 2})

	deadline := time.After(5 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case <-serverGot:
		case <-deadline:
			t.Fatal("server did not receive messages")
		}
	}
	select {
	case m := <-clientGot:
		fr, ok := m.(*FeaturesReply)
		if !ok || fr.DPID != 42 || fr.XID != 2 {
			t.Fatalf("reply = %#v", m)
		}
	case <-deadline:
		t.Fatal("client did not receive FeaturesReply")
	}
	_ = client.Close()
}

func TestNetConnLargeMessageStream(t *testing.T) {
	// Many back-to-back messages over a single stream must be framed
	// correctly.
	a, b := net.Pipe()
	ca, cb := NewNetConn(a), NewNetConn(b)
	const n = 200
	got := make(chan Message, n)
	cb.SetHandler(func(m Message) { got <- m })
	ca.SetHandler(func(Message) {})
	go func() {
		for i := 0; i < n; i++ {
			ca.Send(&PacketIn{XID: uint32(i), BufferID: NoBuffer, InPort: uint32(i), Data: make([]byte, i%97)})
		}
	}()
	deadline := time.After(5 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case m := <-got:
			pi := m.(*PacketIn)
			if pi.XID != uint32(i) || len(pi.Data) != i%97 {
				t.Fatalf("message %d mangled: xid=%d len=%d", i, pi.XID, len(pi.Data))
			}
		case <-deadline:
			t.Fatalf("stalled after %d messages", i)
		}
	}
	_ = ca.Close()
	_ = cb.Close()
}

func TestNetConnReaderErrorSurfaces(t *testing.T) {
	a, b := net.Pipe()
	ca := NewNetConn(a).(*netConn)
	ca.SetHandler(func(Message) {})
	// Write garbage with a huge length prefix, then close: the reader
	// must hit a decode/read error and shut the conn down.
	go func() {
		_, _ = b.Write([]byte{Version, byte(TypeHello), 0xff, 0xff, 0, 0, 0, 1})
		_ = b.Close()
	}()
	select {
	case <-ca.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("conn not closed after reader error")
	}
}

func TestNetConnSendAfterCloseIsNoop(t *testing.T) {
	a, b := net.Pipe()
	ca := NewNetConn(a)
	go func() {
		buf := make([]byte, 64)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	ca.SetHandler(func(Message) {})
	_ = ca.Close()
	ca.Send(&Hello{XID: 1}) // must not panic or block
	_ = b.Close()
}

func TestReadMessageRejectsShortLength(t *testing.T) {
	// A header claiming a length below the header size is invalid.
	data := []byte{Version, byte(TypeHello), 0, 4, 0, 0, 0, 1}
	if _, err := ReadMessage(bytes.NewReader(data)); err == nil {
		t.Fatal("short length accepted")
	}
}

// TestReadPacketInStreamAllocs: reading a stream of packet-ins allocates
// per message exactly what Decode allocates for it, the frame buffer and
// the header included in the reused scratch.
func TestReadPacketInStreamAllocs(t *testing.T) {
	frame := Encode(&PacketIn{XID: 7, BufferID: NoBuffer, InPort: 3, Reason: ReasonNoMatch, Data: make([]byte, 64)})
	decodeAllocs := testing.AllocsPerRun(100, func() {
		if _, err := Decode(frame); err != nil {
			t.Fatal(err)
		}
	})
	r := bytes.NewReader(bytes.Repeat(frame, 200))
	var scratch []byte
	readAllocs := testing.AllocsPerRun(100, func() {
		if _, err := readMessageBuf(r, &scratch); err != nil {
			t.Fatal(err)
		}
	})
	if readAllocs != decodeAllocs {
		t.Fatalf("reading a packet-in allocates %v times, Decode alone %v", readAllocs, decodeAllocs)
	}
}
