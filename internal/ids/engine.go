package ids

import "livesec/internal/netpkt"

// Alert is one rule hit on one packet.
type Alert struct {
	SID      uint32
	Msg      string
	Severity uint8
}

// Ruleset is a rule set compiled for matching: the rules, the two
// multi-pattern automata and the tables that map a pattern hit back to
// its rule. It is built eagerly and never written afterwards, so one
// Ruleset serves any number of Engines, from any number of goroutines —
// a deployment compiles its rule text once, not once per element.
type Ruleset struct {
	rules []*Rule
	// caseSensitive/caseFolded are the two multi-pattern automatons;
	// caseFolded is a nocase matcher, so both scan the payload as it is.
	caseSensitive *Matcher
	caseFolded    *Matcher
	// csOwner[i] is the rule index owning caseSensitive pattern i, and a
	// per-rule pattern count lets Inspect confirm all contents matched.
	csOwner, cfOwner []int
	// csContent/cfContent point back at the Content for position
	// constraints (offset/depth).
	csContent, cfContent []*Content
	needed               []int // number of distinct content patterns per rule
}

// Engine inspects packets against a Ruleset for one owner: it holds the
// counters and the working state of Inspect, so it is not safe for
// concurrent use. Engines over one Ruleset share nothing mutable.
type Engine struct {
	*Ruleset

	// Inspected counts packets run through the engine.
	Inspected uint64
	// Alerts counts alerts produced.
	Alerts uint64

	// scratch is reused by every Inspect so the hot clean path (no
	// pattern hits) allocates nothing.
	scratch inspectScratch
}

// inspectScratch is the reusable working state of Inspect:
// generation-stamped hit tracking (no clearing between packets).
type inspectScratch struct {
	gen     uint32
	ruleGen []uint32 // per rule: gen when it last gained a pattern hit
	count   []int32  // per rule: distinct patterns matched this gen
	patGen  []uint32 // per pattern (cs ids, then cf ids): dedupe stamp
	cand    []int    // candidate rule indices, in first-hit order
}

// next readies the scratch for one more packet.
func (s *inspectScratch) next() {
	s.gen++
	if s.gen == 0 {
		// Wrapped: stamps from 2^32 packets ago could collide; reset.
		clear(s.ruleGen)
		clear(s.patGen)
		s.gen = 1
	}
	s.cand = s.cand[:0]
}

// NewRuleset compiles rules, building both automata. A content the
// matcher refuses (empty; ParseRule rejects it) owns no pattern index.
func NewRuleset(rules []*Rule) *Ruleset {
	rs := &Ruleset{
		rules:         rules,
		caseSensitive: NewMatcher(),
		caseFolded:    NewNoCaseMatcher(),
		needed:        make([]int, len(rules)),
	}
	for ri, r := range rules {
		for ci := range r.Contents {
			c := &r.Contents[ci]
			switch {
			case c.NoCase && rs.caseFolded.Add(c.Pattern) >= 0:
				rs.cfOwner = append(rs.cfOwner, ri)
				rs.cfContent = append(rs.cfContent, c)
			case !c.NoCase && rs.caseSensitive.Add(c.Pattern) >= 0:
				rs.csOwner = append(rs.csOwner, ri)
				rs.csContent = append(rs.csContent, c)
			default:
				continue
			}
			rs.needed[ri]++
		}
	}
	rs.caseSensitive.Build()
	rs.caseFolded.Build()
	return rs
}

// Compile parses rule text and compiles it.
func Compile(ruleText string) (*Ruleset, error) {
	rules, err := ParseRules(ruleText)
	if err != nil {
		return nil, err
	}
	return NewRuleset(rules), nil
}

// NewEngine returns an engine of its own over the shared rule set.
func (rs *Ruleset) NewEngine() *Engine {
	return &Engine{Ruleset: rs, scratch: inspectScratch{
		ruleGen: make([]uint32, len(rs.rules)),
		count:   make([]int32, len(rs.rules)),
		patGen:  make([]uint32, len(rs.csOwner)+len(rs.cfOwner)),
	}}
}

// NewEngine compiles a rule set for a single engine.
func NewEngine(rules []*Rule) *Engine { return NewRuleset(rules).NewEngine() }

// MustEngine compiles rule text, panicking on parse errors. Intended for
// static built-in rule sets.
func MustEngine(ruleText string) *Engine {
	rs, err := Compile(ruleText)
	if err != nil {
		panic(err)
	}
	return rs.NewEngine()
}

// Inspect runs the packet through the rule set and returns any alerts,
// in rule-definition order. The clean path (no pattern hits) performs no
// heap allocation: the working state is the engine's own and
// generation-stamped.
func (e *Engine) Inspect(pkt *netpkt.Packet) []Alert {
	e.Inspected++
	if pkt.IP == nil || len(pkt.Payload) == 0 {
		return nil
	}
	s := &e.scratch
	s.next()
	// Phase 1: multi-pattern scan counts distinct matched patterns per
	// candidate rule (repeat occurrences dedupe via the pattern stamp).
	record := func(ri, id int) {
		if s.patGen[id] == s.gen {
			return
		}
		s.patGen[id] = s.gen
		if s.ruleGen[ri] != s.gen {
			s.ruleGen[ri] = s.gen
			s.count[ri] = 0
			s.cand = append(s.cand, ri)
		}
		s.count[ri]++
	}
	if e.caseSensitive.NumPatterns() > 0 {
		e.caseSensitive.Find(pkt.Payload, func(p, end int) bool {
			if positionOK(e.csContent[p], end) {
				record(e.csOwner[p], p)
			}
			return true
		})
	}
	if e.caseFolded.NumPatterns() > 0 {
		e.caseFolded.Find(pkt.Payload, func(p, end int) bool {
			if positionOK(e.cfContent[p], end) {
				// Disjoint id namespace from case-sensitive patterns.
				record(e.cfOwner[p], len(e.csOwner)+p)
			}
			return true
		})
	}
	if len(s.cand) == 0 {
		return nil
	}
	// Phase 2: header predicates for rules whose contents all matched.
	// Candidates are sorted by rule index (insertion sort: the list is
	// tiny) so alert order is deterministic rule-definition order.
	for i := 1; i < len(s.cand); i++ {
		for j := i; j > 0 && s.cand[j] < s.cand[j-1]; j-- {
			s.cand[j], s.cand[j-1] = s.cand[j-1], s.cand[j]
		}
	}
	var alerts []Alert
	for _, ri := range s.cand {
		r := e.rules[ri]
		if int(s.count[ri]) < e.needed[ri] {
			continue
		}
		if !headerMatches(r, pkt) {
			continue
		}
		alerts = append(alerts, Alert{SID: r.SID, Msg: r.Msg, Severity: r.Severity})
	}
	e.Alerts += uint64(len(alerts))
	return alerts
}

// positionOK applies a content's offset/depth constraint given the end
// offset of a match (the pattern starts at end−len).
func positionOK(c *Content, end int) bool {
	if c.Offset == 0 && c.Depth == 0 {
		return true
	}
	start := end - len(c.Pattern)
	if start < c.Offset {
		return false
	}
	if c.Depth > 0 && start >= c.Offset+c.Depth {
		return false
	}
	return true
}

func headerMatches(r *Rule, pkt *netpkt.Packet) bool {
	if r.Proto != 0 && pkt.IP.Proto != r.Proto {
		return false
	}
	if !r.SrcIP.matches(pkt.IP.Src) || !r.DstIP.matches(pkt.IP.Dst) {
		return false
	}
	var sp, dp uint16
	switch {
	case pkt.TCP != nil:
		sp, dp = pkt.TCP.SrcPort, pkt.TCP.DstPort
	case pkt.UDP != nil:
		sp, dp = pkt.UDP.SrcPort, pkt.UDP.DstPort
	}
	if !r.SrcPort.matches(sp) || !r.DstPort.matches(dp) {
		return false
	}
	if size := pkt.PayloadLen(); size < r.DSizeMin || (r.DSizeMax > 0 && size > r.DSizeMax) {
		return false
	}
	if r.Flags != "" {
		if pkt.TCP == nil {
			return false
		}
		for _, c := range r.Flags {
			switch c {
			case 'S':
				if !pkt.TCP.SYN {
					return false
				}
			case 'A':
				if !pkt.TCP.ACK {
					return false
				}
			case 'F':
				if !pkt.TCP.FIN {
					return false
				}
			case 'R':
				if !pkt.TCP.RST {
					return false
				}
			}
		}
	}
	return true
}

// CommunityRules is a compact built-in rule set in the spirit of the
// Snort community rules the paper's deployment ran. Examples and the
// testbed use it; applications can load their own.
const CommunityRules = `
# LiveSec built-in detection rules (Snort-lite syntax)
alert tcp any any -> any 80 (msg:"WEB SQL injection attempt"; content:"' OR 1=1"; nocase; sid:1001; severity:180;)
alert tcp any any -> any 80 (msg:"WEB directory traversal"; content:"../../"; sid:1002; severity:140;)
alert tcp any any -> any 80 (msg:"WEB remote shell upload"; content:"cmd.exe"; nocase; sid:1003; severity:200;)
alert tcp any any -> any any (msg:"TROJAN C2 beacon"; content:"|de ad be ef|"; content:"HELO-BOT"; sid:2001; severity:220;)
alert tcp any any -> any any (msg:"MALWARE EICAR test string"; content:"X5O!P%@AP[4\PZX54(P^)7CC)7}$EICAR"; sid:2002; severity:250;)
alert udp any any -> any 53 (msg:"DNS suspicious TXT exfil"; content:"exfil."; sid:3001; severity:120;)
alert udp any any -> any any (msg:"SCAN UDP probe marker"; content:"LIVESEC-SCAN"; sid:3002; severity:90;)
alert icmp any any -> any any (msg:"ICMP covert channel"; content:"TUNNEL"; sid:4001; severity:110;)
alert tcp any any -> any 22 (msg:"SSH brute force banner"; content:"SSH-2.0-hydra"; sid:5001; severity:160;)
alert tcp any any -> any any (msg:"POLICY cleartext password"; content:"password="; nocase; sid:6001; severity:60;)
`
