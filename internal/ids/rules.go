package ids

import (
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"livesec/internal/netpkt"
)

// Rule is one parsed detection rule, e.g.
//
//	alert tcp any any -> any 80 (msg:"SQLi"; content:"' OR 1=1"; sid:1001; severity:180;)
//
// A packet alerts when the header predicates AND every content pattern
// match.
type Rule struct {
	SID      uint32
	Msg      string
	Severity uint8
	Proto    netpkt.IPProto // 0 = any IP protocol

	SrcIP, DstIP     ipPredicate
	SrcPort, DstPort portPredicate

	Contents []Content

	// DSizeMin/DSizeMax bound the payload length (dsize option);
	// DSizeMax 0 means unbounded.
	DSizeMin, DSizeMax int
	// Flags require TCP flags (flags option): subset of S, A, F, R.
	Flags string
}

// Content is one payload pattern. Offset/Depth constrain where in the
// payload the pattern may begin (Snort semantics): Offset is the first
// admissible start position; Depth, when positive, is the number of
// bytes from Offset within which the pattern must start.
type Content struct {
	Pattern []byte
	NoCase  bool
	Offset  int
	Depth   int
}

type ipPredicate struct {
	any     bool
	addr    uint32
	mask    uint32
	negated bool
}

func (p ipPredicate) matches(ip netpkt.IPv4Addr) bool {
	if p.any {
		return true
	}
	hit := ip.Uint32()&p.mask == p.addr&p.mask
	if p.negated {
		return !hit
	}
	return hit
}

type portPredicate struct {
	any     bool
	lo, hi  uint16
	negated bool
}

func (p portPredicate) matches(port uint16) bool {
	if p.any {
		return true
	}
	hit := port >= p.lo && port <= p.hi
	if p.negated {
		return !hit
	}
	return hit
}

// ParseRules parses a rule file: one rule per line, '#' comments and
// blank lines ignored. Parsing stops at the first malformed rule.
func ParseRules(text string) ([]*Rule, error) {
	var rules []*Rule
	for lineNo, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		r, err := ParseRule(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
		}
		rules = append(rules, r)
	}
	return rules, nil
}

// ParseRule parses a single rule line.
func ParseRule(line string) (*Rule, error) {
	open := strings.Index(line, "(")
	close_ := strings.LastIndex(line, ")")
	if open < 0 || close_ < open {
		return nil, fmt.Errorf("ids: missing option block in %q", line)
	}
	head := strings.Fields(line[:open])
	if len(head) != 7 {
		return nil, fmt.Errorf("ids: header needs 7 fields (action proto src sport -> dst dport), got %d", len(head))
	}
	if head[0] != "alert" {
		return nil, fmt.Errorf("ids: unsupported action %q", head[0])
	}
	if head[4] != "->" {
		return nil, fmt.Errorf("ids: expected '->', got %q", head[4])
	}
	r := &Rule{Severity: 100}
	switch head[1] {
	case "tcp":
		r.Proto = netpkt.ProtoTCP
	case "udp":
		r.Proto = netpkt.ProtoUDP
	case "icmp":
		r.Proto = netpkt.ProtoICMP
	case "ip":
		r.Proto = 0
	default:
		return nil, fmt.Errorf("ids: unknown protocol %q", head[1])
	}
	var err error
	if r.SrcIP, err = parseIPPred(head[2]); err != nil {
		return nil, err
	}
	if r.SrcPort, err = parsePortPred(head[3]); err != nil {
		return nil, err
	}
	if r.DstIP, err = parseIPPred(head[5]); err != nil {
		return nil, err
	}
	if r.DstPort, err = parsePortPred(head[6]); err != nil {
		return nil, err
	}
	if err := parseOptions(r, line[open+1:close_]); err != nil {
		return nil, err
	}
	if len(r.Contents) == 0 {
		return nil, fmt.Errorf("ids: rule %d has no content pattern", r.SID)
	}
	return r, nil
}

func parseIPPred(s string) (ipPredicate, error) {
	p := ipPredicate{}
	if strings.HasPrefix(s, "!") {
		p.negated = true
		s = s[1:]
	}
	if s == "any" {
		if p.negated {
			return p, fmt.Errorf("ids: !any is empty")
		}
		p.any = true
		return p, nil
	}
	addr := s
	bits := 32
	if i := strings.Index(s, "/"); i >= 0 {
		addr = s[:i]
		n, err := strconv.Atoi(s[i+1:])
		if err != nil || n < 0 || n > 32 {
			return p, fmt.Errorf("ids: bad prefix length in %q", s)
		}
		bits = n
	}
	parts := strings.Split(addr, ".")
	if len(parts) != 4 {
		return p, fmt.Errorf("ids: bad address %q", s)
	}
	var v uint32
	for _, part := range parts {
		o, err := strconv.Atoi(part)
		if err != nil || o < 0 || o > 255 {
			return p, fmt.Errorf("ids: bad octet in %q", s)
		}
		v = v<<8 | uint32(o)
	}
	p.addr = v
	if bits == 0 {
		p.mask = 0
	} else {
		p.mask = ^uint32(0) << (32 - bits)
	}
	return p, nil
}

func parsePortPred(s string) (portPredicate, error) {
	p := portPredicate{}
	if strings.HasPrefix(s, "!") {
		p.negated = true
		s = s[1:]
	}
	if s == "any" {
		if p.negated {
			return p, fmt.Errorf("ids: !any is empty")
		}
		p.any = true
		return p, nil
	}
	lo, hi := s, s
	if i := strings.Index(s, ":"); i >= 0 {
		lo, hi = s[:i], s[i+1:]
		if lo == "" {
			lo = "0"
		}
		if hi == "" {
			hi = "65535"
		}
	}
	l, err := strconv.ParseUint(lo, 10, 16)
	if err != nil {
		return p, fmt.Errorf("ids: bad port %q", s)
	}
	h, err := strconv.ParseUint(hi, 10, 16)
	if err != nil {
		return p, fmt.Errorf("ids: bad port %q", s)
	}
	if l > h {
		return p, fmt.Errorf("ids: inverted port range %q", s)
	}
	p.lo, p.hi = uint16(l), uint16(h)
	return p, nil
}

func parseOptions(r *Rule, opts string) error {
	for _, raw := range splitOptions(opts) {
		kv := strings.SplitN(raw, ":", 2)
		key := strings.TrimSpace(kv[0])
		if key == "" {
			continue
		}
		val := ""
		if len(kv) == 2 {
			val = strings.TrimSpace(kv[1])
		}
		switch key {
		case "msg":
			r.Msg = unquote(val)
		case "content":
			p, err := decodeContent(unquote(val))
			if err != nil {
				return err
			}
			r.Contents = append(r.Contents, Content{Pattern: p})
		case "nocase":
			if len(r.Contents) == 0 {
				return fmt.Errorf("ids: nocase before any content")
			}
			c := &r.Contents[len(r.Contents)-1]
			c.NoCase = true
			c.Pattern = lower(c.Pattern)
		case "offset":
			if len(r.Contents) == 0 {
				return fmt.Errorf("ids: offset before any content")
			}
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return fmt.Errorf("ids: bad offset %q", val)
			}
			r.Contents[len(r.Contents)-1].Offset = n
		case "depth":
			if len(r.Contents) == 0 {
				return fmt.Errorf("ids: depth before any content")
			}
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return fmt.Errorf("ids: bad depth %q", val)
			}
			r.Contents[len(r.Contents)-1].Depth = n
		case "sid":
			n, err := strconv.ParseUint(val, 10, 32)
			if err != nil {
				return fmt.Errorf("ids: bad sid %q", val)
			}
			r.SID = uint32(n)
		case "severity":
			n, err := strconv.ParseUint(val, 10, 8)
			if err != nil {
				return fmt.Errorf("ids: bad severity %q", val)
			}
			r.Severity = uint8(n)
		case "dsize":
			if err := parseDSize(r, val); err != nil {
				return err
			}
		case "flags":
			for _, c := range val {
				switch c {
				case 'S', 'A', 'F', 'R':
				default:
					return fmt.Errorf("ids: unsupported TCP flag %q", string(c))
				}
			}
			r.Flags = val
		default:
			return fmt.Errorf("ids: unknown option %q", key)
		}
	}
	return nil
}

// splitOptions splits on ';' but respects double-quoted strings so
// content patterns may contain semicolons.
func splitOptions(s string) []string {
	var out []string
	var cur strings.Builder
	inQuote := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			inQuote = !inQuote
			cur.WriteByte(c)
		case c == ';' && !inQuote:
			out = append(out, cur.String())
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	if strings.TrimSpace(cur.String()) != "" {
		out = append(out, cur.String())
	}
	return out
}

func unquote(s string) string {
	s = strings.TrimSpace(s)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		s = s[1 : len(s)-1]
	}
	return s
}

// decodeContent decodes a content pattern: Snort-style hex escapes |41 42|
// give binary bytes, a '|' without a closing one is literal, and an empty,
// odd-length or non-hex escape or an empty pattern is an error.
func decodeContent(s string) ([]byte, error) {
	var out []byte
	for i := 0; i < len(s); i++ {
		end := -1
		if s[i] == '|' {
			end = strings.IndexByte(s[i+1:], '|')
		}
		if end < 0 {
			out = append(out, s[i])
			continue
		}
		esc := s[i+1 : i+1+end]
		b, err := hex.DecodeString(strings.ReplaceAll(esc, " ", ""))
		if err != nil || len(b) == 0 {
			return nil, fmt.Errorf("ids: bad hex escape |%s| in content", esc)
		}
		out = append(out, b...)
		i += end + 1
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("ids: empty content %q", s)
	}
	return out, nil
}

// parseDSize handles Snort dsize syntax: "N", ">N", "<N", "min<>max".
func parseDSize(r *Rule, val string) error {
	switch {
	case strings.Contains(val, "<>"):
		parts := strings.SplitN(val, "<>", 2)
		lo, err1 := strconv.Atoi(strings.TrimSpace(parts[0]))
		hi, err2 := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err1 != nil || err2 != nil || lo > hi {
			return fmt.Errorf("ids: bad dsize range %q", val)
		}
		r.DSizeMin, r.DSizeMax = lo, hi
	case strings.HasPrefix(val, ">"):
		n, err := strconv.Atoi(strings.TrimSpace(val[1:]))
		if err != nil {
			return fmt.Errorf("ids: bad dsize %q", val)
		}
		r.DSizeMin = n + 1
	case strings.HasPrefix(val, "<"):
		n, err := strconv.Atoi(strings.TrimSpace(val[1:]))
		if err != nil || n == 0 {
			return fmt.Errorf("ids: bad dsize %q", val)
		}
		r.DSizeMax = n - 1
	default:
		n, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil {
			return fmt.Errorf("ids: bad dsize %q", val)
		}
		r.DSizeMin, r.DSizeMax = n, n
	}
	return nil
}

func lower(b []byte) []byte {
	out := make([]byte, len(b))
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		out[i] = c
	}
	return out
}
