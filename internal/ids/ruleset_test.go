package ids

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"livesec/internal/netpkt"
	"livesec/internal/workload"
)

// sharingTraffic is every canned attack plus a clean mix (mixed case for
// the nocase automaton, UDP, ICMP, an empty payload).
func sharingTraffic() []*netpkt.Packet {
	names := make([]string, 0, len(workload.Attacks))
	for name := range workload.Attacks {
		names = append(names, name)
	}
	sort.Strings(names)
	var pkts []*netpkt.Packet
	for _, name := range names {
		a := workload.Attacks[name]
		pkts = append(pkts, netpkt.NewTCP(macA, macB, ipA, ipB, 40000, a.DstPort, a.Payload))
	}
	return append(pkts,
		web("GET /Index.HTML HTTP/1.1\r\nHost: Example.COM\r\n"),
		web("POST /form HTTP/1.1\r\n\r\nuser=alice&note=hello"),
		web("PASSWORD=hunter2"), // nocase hit
		web(""),
		netpkt.NewUDP(macA, macB, ipA, ipB, 5353, 53, []byte("\x00\x01www.example.com")),
		netpkt.NewUDP(macA, macB, ipA, ipB, 9, 9, []byte("xx LIVESEC-SCAN xx")),
		netpkt.NewTCP(macA, macB, ipA, ipB, 40001, 22, []byte("SSH-2.0-OpenSSH_8.9\r\n")),
	)
}

// TestEnginesOverOneRulesetMatchIndependentEngines: N engines built over
// one compiled Ruleset must behave as N engines that each compiled the
// rules themselves — same alerts per packet, and counters that belong to
// the engine, not to the rule set. Engine i inspects i+1 passes, from its
// own goroutine, so -race sees any write to the shared part.
func TestEnginesOverOneRulesetMatchIndependentEngines(t *testing.T) {
	const n = 8
	pkts := sharingTraffic()
	rs, err := Compile(CommunityRules)
	if err != nil {
		t.Fatal(err)
	}

	inspectAll := func(e *Engine, passes int) [][]Alert {
		var out [][]Alert
		for p := 0; p < passes; p++ {
			for _, pkt := range pkts {
				out = append(out, e.Inspect(pkt))
			}
		}
		return out
	}

	shared := make([]*Engine, n)
	got := make([][][]Alert, n)
	var wg sync.WaitGroup
	for i := range shared {
		shared[i] = rs.NewEngine()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = inspectAll(shared[i], i+1)
		}(i)
	}
	wg.Wait()

	alertsPerPass := uint64(0)
	for i := range shared {
		own := communityEngine(t)
		want := inspectAll(own, i+1)
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("engine %d over the shared ruleset: alerts differ from an independent engine's", i)
		}
		if shared[i].Inspected != own.Inspected || shared[i].Alerts != own.Alerts {
			t.Fatalf("engine %d counters = %d inspected / %d alerts, independent engine %d / %d",
				i, shared[i].Inspected, shared[i].Alerts, own.Inspected, own.Alerts)
		}
		if i == 0 {
			alertsPerPass = own.Alerts
		}
		if shared[i].Inspected != uint64((i+1)*len(pkts)) || shared[i].Alerts != uint64(i+1)*alertsPerPass {
			t.Fatalf("engine %d counted %d inspected / %d alerts, want its own %d passes only",
				i, shared[i].Inspected, shared[i].Alerts, i+1)
		}
	}
	// Every attack, the nocase password and the scan marker alert.
	if want := uint64(len(workload.Attacks) + 2); alertsPerPass != want {
		t.Fatalf("alerts per pass = %d, want %d", alertsPerPass, want)
	}
}

// TestContentThatDecodesToNothing: a content that decodes to nothing
// once shifted the owner of every later pattern — NewRuleset appended an
// owner for the index Add refused — so a broken rule alerted with the
// next rule's pattern. ParseRule now rejects it, and NewRuleset keeps
// owners aligned for a hand-built rule that carries one.
func TestContentThatDecodesToNothing(t *testing.T) {
	for _, c := range []string{`""`, `"|zz|"`, `"|4|"`, `"|41 4|"`, `"||"`} {
		line := `alert tcp any any -> any any (msg:"broken"; content:` + c + `; sid:1;)`
		if _, err := ParseRule(line); err == nil {
			t.Errorf("accepted content:%s", c)
		}
	}
	if r, err := ParseRule(`alert tcp any any -> any any (msg:"pipe|s"; content:"a|b"; sid:1;)`); err != nil ||
		string(r.Contents[0].Pattern) != "a|b" || r.Msg != "pipe|s" {
		t.Fatalf("an unclosed '|' must stay literal: %+v, %v", r, err)
	}

	genuine, err := ParseRule(`alert tcp any any -> any any (msg:"real"; content:"attack"; sid:2;)`)
	if err != nil {
		t.Fatal(err)
	}
	broken := &Rule{SID: 1, Msg: "broken", Contents: []Content{{}}, SrcIP: genuine.SrcIP, DstIP: genuine.DstIP,
		SrcPort: genuine.SrcPort, DstPort: genuine.DstPort}
	e := NewRuleset([]*Rule{broken, genuine}).NewEngine()
	alerts := e.Inspect(netpkt.NewTCP(macA, macB, ipA, ipB, 1, 2, []byte("an attack here")))
	if len(alerts) != 1 || alerts[0].SID != 2 || alerts[0].Msg != "real" {
		t.Fatalf("alerts = %+v, want only SID 2 \"real\"", alerts)
	}
}
