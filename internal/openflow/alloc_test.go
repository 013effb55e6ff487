package openflow

import (
	"reflect"
	"testing"

	"livesec/internal/flow"
	"livesec/internal/netpkt"
	"livesec/internal/sim"
)

// hotFlowMod is representative of the flow mods the controller emits on
// the flow-setup fast path: exact match, one rewrite, one output.
func hotFlowMod() *FlowMod {
	return &FlowMod{
		XID: 42, Match: flow.ExactMatch(sampleMatch().Key), Cookie: 7,
		Command: FlowAdd, IdleTimeout: 30, Priority: 200, NotifyDel: true,
		Actions: []Action{ActionSetDLDst{MAC: netpkt.MACFromUint64(9)}, ActionOutput{Port: 4}},
	}
}

func TestMarshalAppendMatchesEncode(t *testing.T) {
	msgs := []Message{
		&Hello{XID: 1},
		hotFlowMod(),
		&PacketOut{XID: 3, BufferID: NoBuffer, InPort: 2,
			Actions: Output(7), Data: []byte{1, 2, 3, 4}},
		&FeaturesReply{XID: 5, DPID: 1, NTables: 1,
			Ports: []PortDesc{{No: 1, MAC: netpkt.MACFromUint64(1), Name: "eth0"}}},
	}
	for _, m := range msgs {
		var buf []byte
		for _, w := range msgs { // several messages share one buffer
			if w == m {
				buf = MarshalAppend(buf, w)
			}
		}
		if got, want := string(buf), string(Encode(m)); got != want {
			t.Errorf("%s: MarshalAppend != Encode", m.Type())
		}
	}
	// A multi-message buffer is a valid stream: each frame decodes.
	var stream []byte
	for _, m := range msgs {
		stream = MarshalAppend(stream, m)
	}
	var decoded []Message
	for len(stream) > 0 {
		length := int(uint16(stream[2])<<8 | uint16(stream[3]))
		m, err := Decode(stream[:length])
		if err != nil {
			t.Fatalf("stream decode: %v", err)
		}
		decoded = append(decoded, m)
		stream = stream[length:]
	}
	if len(decoded) != len(msgs) {
		t.Fatalf("decoded %d messages, want %d", len(decoded), len(msgs))
	}
	for i := range msgs {
		if !reflect.DeepEqual(decoded[i], msgs[i]) {
			t.Errorf("stream message %d mismatch: %#v", i, decoded[i])
		}
	}
}

// MarshalAppend into a pre-sized buffer must not allocate: this is the
// invariant the batched transports rely on for the flow-setup fast path.
func TestMarshalAppendZeroAllocs(t *testing.T) {
	fm := hotFlowMod()
	po := &PacketOut{XID: 3, BufferID: NoBuffer, InPort: 2, Actions: Output(7), Data: make([]byte, 60)}
	buf := make([]byte, 0, 512)
	allocs := testing.AllocsPerRun(200, func() {
		buf = MarshalAppend(buf[:0], fm)
		buf = MarshalAppend(buf, po)
	})
	if allocs != 0 {
		t.Fatalf("MarshalAppend allocs/op = %v, want 0", allocs)
	}
}

// Decoding the hot-path messages must stay within a small fixed budget
// (the message struct, its action list, and any retained payload copy).
func TestDecodeAllocBudget(t *testing.T) {
	data := Encode(hotFlowMod())
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := Decode(data); err != nil {
			t.Fatal(err)
		}
	})
	// 1 struct + 1 action slice + 2 boxed actions.
	if allocs > 4 {
		t.Fatalf("Decode(FlowMod) allocs/op = %v, want <= 4", allocs)
	}
}

// A batched send through the sim transport must reuse its pooled buffer:
// steady-state allocations are decode-side only.
func TestSimSendBatchSteadyStateAllocs(t *testing.T) {
	eng := sim.NewEngine(1)
	a, b := SimPipe(eng, 0)
	n := 0
	b.SetHandler(func(Message) { n++ })
	batch := []Message{hotFlowMod(), hotFlowMod(), &BarrierRequest{XID: 1}}
	// Warm the pool.
	for i := 0; i < 3; i++ {
		a.SendBatch(batch)
		if err := eng.Run(eng.Now() + 1); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		a.SendBatch(batch)
		if err := eng.Run(eng.Now() + 1); err != nil {
			t.Fatal(err)
		}
	})
	// Decode must allocate the received messages; everything else
	// (encode buffer, event scheduling) should be amortized. The bound
	// is deliberately loose enough to tolerate sim-engine bookkeeping.
	if allocs > 16 {
		t.Fatalf("SendBatch steady-state allocs/op = %v, want <= 16", allocs)
	}
}
