package firewall

import (
	"math/rand"
	"testing"

	"livesec/internal/flow"
	"livesec/internal/netpkt"
	"livesec/internal/seproto"
)

// Test endpoints: client (originator) and server. The client's IP sorts
// below the server's, so the client is the canonical Lo side.
var (
	cliIP = netpkt.IP(10, 0, 0, 1)
	srvIP = netpkt.IP(10, 0, 0, 9)
)

func tcpKey(fromClient bool) flow.Key {
	k := flow.Key{EthType: netpkt.EtherTypeIPv4, IPProto: netpkt.ProtoTCP,
		IPSrc: cliIP, IPDst: srvIP, SrcPort: 31000, DstPort: 80}
	if !fromClient {
		k = k.Reverse(0)
	}
	return k
}

func udpKey(fromClient bool) flow.Key {
	k := flow.Key{EthType: netpkt.EtherTypeIPv4, IPProto: netpkt.ProtoUDP,
		IPSrc: cliIP, IPDst: srvIP, SrcPort: 40000, DstPort: 53}
	if !fromClient {
		k = k.Reverse(0)
	}
	return k
}

func hdr(seq uint32, syn, ack, fin, rst bool) *netpkt.TCPHeader {
	return &netpkt.TCPHeader{Seq: seq, SYN: syn, ACK: ack, FIN: fin, RST: rst}
}

func mustState(t *testing.T, tb *Table, k flow.Key, want seproto.ConnState) {
	t.Helper()
	sk, _, _ := seproto.SessionKeyOf(k)
	s, ok := tb.Get(sk)
	if !ok {
		t.Fatalf("session not tracked, want state %v", want)
	}
	if s.State != want {
		t.Fatalf("state = %v, want %v", s.State, want)
	}
}

func TestTCPHandshakeLifecycle(t *testing.T) {
	tb := NewTable(true)

	if out := tb.Process(tcpKey(true), hdr(1, true, false, false, false)); !out.Ok || !out.Changed {
		t.Fatalf("SYN: %+v", out)
	}
	mustState(t, tb, tcpKey(true), seproto.StateSynSent)

	if out := tb.Process(tcpKey(false), hdr(1, true, true, false, false)); !out.Ok {
		t.Fatalf("SYN-ACK: %+v", out)
	}
	mustState(t, tb, tcpKey(true), seproto.StateSynRecv)

	if out := tb.Process(tcpKey(true), hdr(2, false, true, false, false)); !out.Ok {
		t.Fatalf("handshake ACK: %+v", out)
	}
	mustState(t, tb, tcpKey(true), seproto.StateEstablished)

	// Data flows both directions without further transitions.
	for i := uint32(0); i < 3; i++ {
		if out := tb.Process(tcpKey(true), hdr(3+i, false, true, false, false)); !out.Ok || out.Changed {
			t.Fatalf("data fwd %d: %+v", i, out)
		}
		if out := tb.Process(tcpKey(false), hdr(2+i, false, true, false, false)); !out.Ok || out.Changed {
			t.Fatalf("data rev %d: %+v", i, out)
		}
	}

	if out := tb.Process(tcpKey(true), hdr(10, false, true, true, false)); !out.Ok {
		t.Fatalf("FIN: %+v", out)
	}
	mustState(t, tb, tcpKey(true), seproto.StateFinWait)

	out := tb.Process(tcpKey(false), hdr(10, false, true, true, false))
	if !out.Ok || !out.Changed || out.Final.State != seproto.StateClosed {
		t.Fatalf("second FIN: %+v", out)
	}
	if tb.Len() != 0 {
		t.Fatalf("closed session still tracked (%d entries)", tb.Len())
	}
}

func TestStrictRejectsOutOfState(t *testing.T) {
	tb := NewTable(true)

	// Spoofed mid-stream ACK with no tracked session.
	if out := tb.Process(tcpKey(true), hdr(999, false, true, false, false)); out.Ok || out.Reason != ReasonOutOfState {
		t.Fatalf("spoofed ACK: %+v", out)
	}
	// Unsolicited reverse traffic (server → client with no session).
	if out := tb.Process(tcpKey(false), hdr(1, false, true, false, false)); out.Ok || out.Reason != ReasonOutOfState {
		t.Fatalf("unsolicited reverse: %+v", out)
	}
	if tb.Len() != 0 {
		t.Fatal("rejected packets created state")
	}

	// A SYN inside an established session is out of state.
	establish(t, tb)
	if out := tb.Process(tcpKey(true), hdr(50, true, false, false, false)); out.Ok || out.Reason != ReasonOutOfState {
		t.Fatalf("SYN inside established: %+v", out)
	}
	mustState(t, tb, tcpKey(true), seproto.StateEstablished)
}

func TestStrictRejectsOutOfWindow(t *testing.T) {
	tb := NewTable(true)
	establish(t, tb)

	// Blind injection: correct 5-tuple, wildly wrong sequence.
	if out := tb.Process(tcpKey(true), hdr(0x70000000, false, true, false, false)); out.Ok || out.Reason != ReasonOutOfWindow {
		t.Fatalf("out-of-window: %+v", out)
	}
	// In-window data still flows.
	if out := tb.Process(tcpKey(true), hdr(100, false, true, false, false)); !out.Ok {
		t.Fatalf("in-window data: %+v", out)
	}
}

func TestPermissiveRelearnsMidStream(t *testing.T) {
	tb := NewTable(false)
	out := tb.Process(tcpKey(true), hdr(999, false, true, false, false))
	if !out.Ok || !out.Changed || out.Final.State != seproto.StateEstablished {
		t.Fatalf("permissive relearn: %+v", out)
	}
}

func TestUDPCoarseTrack(t *testing.T) {
	tb := NewTable(true)
	out := tb.Process(udpKey(true), nil)
	if !out.Ok || !out.Changed || out.Final.State != seproto.StateNew {
		t.Fatalf("first UDP: %+v", out)
	}
	out = tb.Process(udpKey(false), nil)
	if !out.Ok || !out.Changed || out.Final.State != seproto.StateEstablished {
		t.Fatalf("UDP reply: %+v", out)
	}
	if out = tb.Process(udpKey(true), nil); !out.Ok || out.Changed {
		t.Fatalf("steady UDP: %+v", out)
	}
}

func TestRSTClosesFromAnyState(t *testing.T) {
	for _, setup := range []func(*testing.T, *Table){
		func(t *testing.T, tb *Table) { // syn-sent
			tb.Process(tcpKey(true), hdr(1, true, false, false, false))
		},
		establish,
	} {
		tb := NewTable(true)
		setup(t, tb)
		out := tb.Process(tcpKey(false), hdr(1, false, false, false, true))
		if !out.Ok || out.Final.State != seproto.StateClosed || tb.Len() != 0 {
			t.Fatalf("RST: %+v len=%d", out, tb.Len())
		}
	}
}

func TestInstallMergeRules(t *testing.T) {
	tb := NewTable(true)
	establish(t, tb)
	local, _, _ := seproto.SessionKeyOf(tcpKey(true))

	otherKey := seproto.SessionKey{Proto: netpkt.ProtoTCP,
		LoIP: netpkt.IP(10, 0, 0, 2), HiIP: srvIP, LoPort: 31001, HiPort: 80}
	installed := tb.Install([]seproto.SessionState{
		{Key: local, State: seproto.StateSynSent, OrigLo: true},        // existing: local wins
		{Key: otherKey, State: seproto.StateEstablished, OrigLo: true}, // new: adopted
		{Key: seproto.SessionKey{Proto: netpkt.ProtoTCP, LoIP: cliIP, HiIP: srvIP, LoPort: 9, HiPort: 9},
			State: seproto.StateClosed}, // closed: never resurrected
	})
	if installed != 1 {
		t.Fatalf("installed = %d, want 1", installed)
	}
	if s, _ := tb.Get(local); s.State != seproto.StateEstablished {
		t.Fatalf("install overwrote local state: %v", s.State)
	}
	if s, ok := tb.Get(otherKey); !ok || s.State != seproto.StateEstablished {
		t.Fatal("migrated session not adopted")
	}
	if tb.Len() != 2 {
		t.Fatalf("len = %d, want 2", tb.Len())
	}
}

func TestExportDeterministicOrder(t *testing.T) {
	tb := NewTable(true)
	for port := uint16(100); port < 110; port++ {
		k := flow.Key{EthType: netpkt.EtherTypeIPv4, IPProto: netpkt.ProtoTCP,
			IPSrc: cliIP, IPDst: srvIP, SrcPort: port, DstPort: 80}
		tb.Process(k, hdr(1, true, false, false, false))
	}
	exp := tb.Export()
	if len(exp) != 10 {
		t.Fatalf("export len = %d", len(exp))
	}
	for i := 1; i < len(exp); i++ {
		if !exp[i-1].Key.Less(exp[i].Key) {
			t.Fatalf("export not sorted at %d", i)
		}
	}
}

// establish walks a table through a full handshake for the canonical
// test session.
func establish(t *testing.T, tb *Table) {
	t.Helper()
	for _, step := range []struct {
		fromClient bool
		h          *netpkt.TCPHeader
	}{
		{true, hdr(1, true, false, false, false)},
		{false, hdr(1, true, true, false, false)},
		{true, hdr(2, false, true, false, false)},
	} {
		if out := tb.Process(tcpKey(step.fromClient), step.h); !out.Ok {
			t.Fatalf("establish step %+v rejected: %+v", step.h, out)
		}
	}
	mustState(t, tb, tcpKey(true), seproto.StateEstablished)
}

// referenceNext is an independent straight-line transcription of the
// TCP transition table — every case written out literally, no shared
// helpers with the implementation. The property test below checks the
// implementation agrees with it on every reachable (state, direction,
// flags) combination.
func referenceNext(state seproto.ConnState, fromOrig, syn, ack, fin, rst bool) (seproto.ConnState, bool) {
	if rst {
		return seproto.StateClosed, true
	}
	if state == seproto.StateNew {
		if fromOrig && syn && !ack {
			return seproto.StateSynSent, true
		}
		return 0, false
	}
	if state == seproto.StateSynSent {
		if fromOrig && syn && !ack {
			return seproto.StateSynSent, true
		}
		if !fromOrig && syn && ack {
			return seproto.StateSynRecv, true
		}
		return 0, false
	}
	if state == seproto.StateSynRecv {
		if fromOrig && !syn && ack {
			return seproto.StateEstablished, true
		}
		if !fromOrig && syn && ack {
			return seproto.StateSynRecv, true
		}
		return 0, false
	}
	if state == seproto.StateEstablished {
		if syn && !ack {
			return 0, false
		}
		if fin {
			return seproto.StateFinWait, true
		}
		return seproto.StateEstablished, true
	}
	if state == seproto.StateFinWait {
		if fin {
			return seproto.StateClosed, true
		}
		return seproto.StateFinWait, true
	}
	return 0, false
}

// TestPropertyMatchesReferenceTable drives long random packet sequences
// through the strict table and an independent reference machine and
// requires identical admissibility and state at every step.
func TestPropertyMatchesReferenceTable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		tb := NewTable(true)
		// Reference machine state for the single test session.
		refTracked := false
		var refState seproto.ConnState
		var refOrigLo bool

		for step := 0; step < 60; step++ {
			fromClient := rng.Intn(2) == 0
			syn := rng.Intn(3) == 0
			ack := rng.Intn(2) == 0
			fin := rng.Intn(5) == 0
			rst := rng.Intn(12) == 0
			// Sequence numbers stay in-window so this property isolates
			// the state machine (the window check has its own test).
			h := hdr(uint32(1+step), syn, ack, fin, rst)
			out := tb.Process(tcpKey(fromClient), h)

			var refOk bool
			var refNext seproto.ConnState
			if !refTracked {
				if syn && !ack {
					refOk, refNext = true, seproto.StateSynSent
					refOrigLo = fromClient
				}
			} else {
				fromOrig := fromClient == refOrigLo
				refNext, refOk = referenceNext(refState, fromOrig, syn, ack, fin, rst)
			}

			if out.Ok != refOk {
				t.Fatalf("trial %d step %d (tracked=%v state=%v fromClient=%v syn=%v ack=%v fin=%v rst=%v): impl ok=%v, reference ok=%v",
					trial, step, refTracked, refState, fromClient, syn, ack, fin, rst, out.Ok, refOk)
			}
			if refOk {
				if refNext == seproto.StateClosed {
					refTracked = false
					if tb.Len() != 0 {
						t.Fatalf("trial %d step %d: closed session still tracked", trial, step)
					}
				} else {
					refTracked = true
					refState = refNext
					sk, _, _ := seproto.SessionKeyOf(tcpKey(true))
					got, ok := tb.Get(sk)
					if !ok || got.State != refNext {
						t.Fatalf("trial %d step %d: impl state %v/%v, reference %v",
							trial, step, got.State, ok, refNext)
					}
					if got.OrigLo != refOrigLo {
						t.Fatalf("trial %d step %d: impl origLo %v, reference %v",
							trial, step, got.OrigLo, refOrigLo)
					}
				}
			}
		}
	}
}
