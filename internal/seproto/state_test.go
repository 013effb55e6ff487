package seproto

import (
	"errors"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"livesec/internal/flow"
	"livesec/internal/netpkt"
)

func sampleStates() []SessionState {
	return []SessionState{
		{
			Key: SessionKey{Proto: netpkt.ProtoTCP,
				LoIP: netpkt.IP(10, 0, 0, 1), HiIP: netpkt.IP(10, 0, 0, 9),
				LoPort: 31000, HiPort: 80},
			State: StateEstablished, OrigLo: true,
			SeqLo: 1000, SeqHi: 2000, Packets: 42,
		},
		{
			Key: SessionKey{Proto: netpkt.ProtoUDP,
				LoIP: netpkt.IP(10, 0, 0, 2), HiIP: netpkt.IP(10, 0, 0, 9),
				LoPort: 5353, HiPort: 5353},
			State: StateNew, OrigLo: false, Packets: 1,
		},
	}
}

func TestStateSyncRoundTrip(t *testing.T) {
	m := &StateSync{SEID: 7, Cert: Cert{1, 2, 3}, States: sampleStates()}
	got, err := Parse(MarshalStateSync(m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip:\n got %#v\nwant %#v", got, m)
	}
}

func TestStateInstallRoundTrip(t *testing.T) {
	m := &StateInstall{HandoffID: 99, FromSE: 3, States: sampleStates()}
	got, err := Parse(MarshalStateInstall(m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip:\n got %#v\nwant %#v", got, m)
	}
}

func TestStateInstallEmpty(t *testing.T) {
	m := &StateInstall{HandoffID: 1, FromSE: 0}
	got, err := Parse(MarshalStateInstall(m))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(got.(*StateInstall).States); n != 0 {
		t.Fatalf("empty install decoded %d states", n)
	}
}

func TestStateAckRoundTrip(t *testing.T) {
	m := &StateAck{SEID: 4, Cert: Cert{8}, HandoffID: 12, Installed: 3}
	got, err := Parse(MarshalStateAck(m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip:\n got %#v\nwant %#v", got, m)
	}
}

// The handoff messages carry only what their peer reads: an install is
// the header, handoff and source IDs and the state list; an ack is the
// header, the element's ID and certificate, the handoff ID and a count.
func TestStateHandoffWireSizes(t *testing.T) {
	if got, want := len(MarshalStateInstall(&StateInstall{HandoffID: 1, FromSE: 2, States: sampleStates()})),
		6+8+8+2+len(sampleStates())*sessionStateLen; got != want {
		t.Errorf("STATE_INSTALL is %d bytes, want %d", got, want)
	}
	if got, want := len(MarshalStateAck(&StateAck{SEID: 1, HandoffID: 2, Installed: 3})), 6+8+CertLen+8+2; got != want {
		t.Errorf("STATE_ACK is %d bytes, want %d", got, want)
	}
}

func TestStateDecodeRejectsBadEncodings(t *testing.T) {
	m := &StateSync{SEID: 7, States: sampleStates()}
	good := MarshalStateSync(m)

	trunc := good[:len(good)-1]
	if _, err := Parse(trunc); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated state list: %v, want ErrTruncated", err)
	}

	// Corrupt the first state's ConnState byte to an invalid value.
	badState := append([]byte(nil), good...)
	badState[6+8+CertLen+2+13] = 200
	if _, err := Parse(badState); !errors.Is(err, ErrBadState) {
		t.Fatalf("invalid conn state: %v, want ErrBadState", err)
	}

	// Corrupt the flags byte (only bit 0 is defined).
	badFlags := append([]byte(nil), good...)
	badFlags[6+8+CertLen+2+14] = 0x80
	if _, err := Parse(badFlags); !errors.Is(err, ErrBadState) {
		t.Fatalf("invalid flags: %v, want ErrBadState", err)
	}

	// An ack must be exactly sized, and an install must hold its two IDs.
	ack := MarshalStateAck(&StateAck{SEID: 1})
	if _, err := Parse(append(ack, 0)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("oversized ack: %v, want ErrTruncated", err)
	}
	if _, err := Parse(MarshalStateInstall(&StateInstall{HandoffID: 1})[:6+15]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("install cut inside its IDs: %v, want ErrTruncated", err)
	}
}

func TestSessionKeyOfCanonicalizes(t *testing.T) {
	fwd := flow.Key{
		EthType: netpkt.EtherTypeIPv4, IPProto: netpkt.ProtoTCP,
		IPSrc: netpkt.IP(10, 0, 0, 1), IPDst: netpkt.IP(10, 0, 0, 9),
		SrcPort: 31000, DstPort: 80,
		InPort: 3, EthSrc: netpkt.MACFromUint64(1), EthDst: netpkt.MACFromUint64(2),
	}
	rev := fwd.Reverse(17)

	kf, srcIsLoF, ok := SessionKeyOf(fwd)
	if !ok {
		t.Fatal("forward key rejected")
	}
	kr, srcIsLoR, ok := SessionKeyOf(rev)
	if !ok {
		t.Fatal("reverse key rejected")
	}
	if kf != kr {
		t.Fatalf("direction changed the canonical key:\nfwd %v\nrev %v", kf, kr)
	}
	if srcIsLoF == srcIsLoR {
		t.Fatal("both directions claim the same canonical side")
	}

	// The canonical key must ignore attachment point and MACs entirely
	// (host mobility, steering rewrites).
	moved := fwd
	moved.InPort = 99
	moved.EthSrc = netpkt.MACFromUint64(77)
	moved.EthDst = netpkt.MACFromUint64(78)
	km, _, _ := SessionKeyOf(moved)
	if km != kf {
		t.Fatal("mobility/steering fields leaked into the canonical key")
	}

	if _, _, ok := SessionKeyOf(flow.Key{EthType: netpkt.EtherTypeARP}); ok {
		t.Fatal("non-IP flow produced a session key")
	}
}

func TestSessionKeyLessIsStrictWeakOrder(t *testing.T) {
	keys := []SessionKey{
		{Proto: netpkt.ProtoTCP, LoIP: netpkt.IP(10, 0, 0, 1), HiIP: netpkt.IP(10, 0, 0, 2), LoPort: 1, HiPort: 2},
		{Proto: netpkt.ProtoTCP, LoIP: netpkt.IP(10, 0, 0, 1), HiIP: netpkt.IP(10, 0, 0, 2), LoPort: 1, HiPort: 3},
		{Proto: netpkt.ProtoUDP, LoIP: netpkt.IP(10, 0, 0, 1), HiIP: netpkt.IP(10, 0, 0, 2), LoPort: 1, HiPort: 2},
		{Proto: netpkt.ProtoTCP, LoIP: netpkt.IP(9, 0, 0, 1), HiIP: netpkt.IP(10, 0, 0, 2), LoPort: 9, HiPort: 2},
	}
	sorted := append([]SessionKey(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Less(sorted[i-1]) {
			t.Fatalf("sort not stable under Less at %d", i)
		}
		if sorted[i-1] == sorted[i] {
			t.Fatalf("duplicate keys after sort at %d", i)
		}
	}
	for _, k := range keys {
		if k.Less(k) {
			t.Fatalf("key %v compares less than itself", k)
		}
	}
}

// Property: random well-formed session states survive the codec.
func TestPropertyStateSyncRoundTrip(t *testing.T) {
	f := func(seid uint64, proto uint8, lo, hi [4]byte, lp, hp uint16, st uint8, orig bool, seqLo, seqHi uint32, pkts uint64) bool {
		state := SessionState{
			Key: SessionKey{Proto: netpkt.IPProto(proto),
				LoIP: lo, HiIP: hi, LoPort: lp, HiPort: hp},
			State:  ConnState(st%6) + StateNew,
			OrigLo: orig, SeqLo: seqLo, SeqHi: seqHi, Packets: pkts,
		}
		m := &StateSync{SEID: seid, States: []SessionState{state}}
		got, err := Parse(MarshalStateSync(m))
		return err == nil && reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestConnStateStrings(t *testing.T) {
	want := map[ConnState]string{
		StateNew: "new", StateSynSent: "syn-sent", StateSynRecv: "syn-recv",
		StateEstablished: "established", StateFinWait: "fin-wait",
		StateClosed: "closed", ConnState(42): "state(42)",
	}
	for st, s := range want {
		if st.String() != s {
			t.Errorf("%d.String() = %q, want %q", st, st.String(), s)
		}
	}
	if ServiceFW.String() != "stateful-firewall" {
		t.Errorf("ServiceFW.String() = %q", ServiceFW.String())
	}
}
