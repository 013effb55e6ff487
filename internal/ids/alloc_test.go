package ids

import (
	"testing"

	"livesec/internal/netpkt"
)

// The clean path — benign traffic, no pattern hits — is the IDS
// element's per-packet hot path and must not allocate: scratch state is
// the engine's own and generation-stamped, and the nocase automaton scans
// the payload as it is.
func TestInspectCleanPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun is meaningless here")
	}
	e := communityEngine(t)
	// Mixed case exercises the nocase automaton's folded classes.
	pkt := web("GET /Index.HTML HTTP/1.1\r\nHost: Example.COM\r\nAccept: */*")
	e.Inspect(pkt) // warm up
	allocs := testing.AllocsPerRun(200, func() {
		if alerts := e.Inspect(pkt); len(alerts) != 0 {
			t.Fatal("unexpected alert")
		}
	})
	if allocs != 0 {
		t.Fatalf("clean-path Inspect allocs/op = %v, want 0", allocs)
	}
}

// Alerts come back in rule-definition order, stably across repeated
// inspections of the same packet (the map iteration of the original
// implementation made the order random).
func TestInspectAlertOrderDeterministic(t *testing.T) {
	e := MustEngine(`
alert tcp any any -> any any (msg:"c"; content:"ccc"; sid:30;)
alert tcp any any -> any any (msg:"a"; content:"aaa"; sid:10;)
alert tcp any any -> any any (msg:"b"; content:"bbb"; sid:20;)
`)
	pkt := web("payload bbb then aaa then ccc")
	want := []uint32{30, 10, 20} // definition order, not match order
	for trial := 0; trial < 50; trial++ {
		alerts := e.Inspect(pkt)
		if len(alerts) != 3 {
			t.Fatalf("trial %d: %d alerts", trial, len(alerts))
		}
		for i, a := range alerts {
			if a.SID != want[i] {
				t.Fatalf("trial %d: order %v, want SIDs %v", trial, alerts, want)
			}
		}
	}
}

// Reused scratch must not leak hit state between packets: alternating
// dirty and clean traffic yields identical verdicts every round, and a
// multi-content rule is not completed by patterns spread across packets.
func TestInspectScratchReuseIsolation(t *testing.T) {
	e := communityEngine(t)
	half1 := netpkt.NewTCP(macA, macB, ipA, ipB, 1, 2, []byte{0xde, 0xad, 0xbe, 0xef})
	half2 := netpkt.NewTCP(macA, macB, ipA, ipB, 1, 2, []byte("HELO-BOT"))
	for round := 0; round < 100; round++ {
		if alerts := e.Inspect(web("' OR 1=1")); len(alerts) != 1 || alerts[0].SID != 1001 {
			t.Fatalf("round %d: dirty packet alerts = %+v", round, alerts)
		}
		if alerts := e.Inspect(web("totally benign request")); len(alerts) != 0 {
			t.Fatalf("round %d: clean packet alerted: %+v", round, alerts)
		}
		// Each half of rule 2001 alone must never alert, even though the
		// other half matched in a previous Inspect on the same scratch.
		if alerts := e.Inspect(half1); len(alerts) != 0 {
			t.Fatalf("round %d: stale cross-packet match: %+v", round, alerts)
		}
		if alerts := e.Inspect(half2); len(alerts) != 0 {
			t.Fatalf("round %d: stale cross-packet match: %+v", round, alerts)
		}
	}
}
