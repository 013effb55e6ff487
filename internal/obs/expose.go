package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Prometheus text exposition format v0.0.4 and a validating parser for
// it. The writer renders families in name order and series in label-key
// order, so output is byte-stable across identical runs; the parser
// (LintText) backs verify.sh's /metrics check when promtool is not
// installed, and the obs tests themselves.

// ContentType is the HTTP Content-Type of the exposition.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// formatFloat renders a value the way Prometheus clients do: shortest
// representation that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a HELP string (backslash and newline).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value (backslash, quote, newline).
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// labelKey renders a label set canonically: sorted by name, escaped,
// without braces. Empty for an unlabeled series.
func labelKey(labels []Label) string {
	switch len(labels) {
	case 0:
		return ""
	case 1:
		return labels[0].Name + `="` + escapeLabel(labels[0].Value) + `"`
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Name + `="` + escapeLabel(l.Value) + `"`
	}
	// Insertion sort: label sets are tiny and usually already ordered.
	for i := 1; i < len(parts); i++ {
		for j := i; j > 0 && parts[j] < parts[j-1]; j-- {
			parts[j], parts[j-1] = parts[j-1], parts[j]
		}
	}
	return strings.Join(parts, ",")
}

// writeSample emits one sample line: name{labels,extra} value.
func writeSample(w io.Writer, name, labels, extra string, value string) error {
	sep := ""
	if labels != "" && extra != "" {
		sep = ","
	}
	if labels == "" && extra == "" {
		_, err := fmt.Fprintf(w, "%s %s\n", name, value)
		return err
	}
	_, err := fmt.Fprintf(w, "%s{%s%s%s} %s\n", name, labels, sep, extra, value)
	return err
}

// WriteText renders the registry in Prometheus text exposition format
// v0.0.4. Families appear in name order, series in label order; two
// registries with the same contents produce identical bytes.
func (r *Registry) WriteText(w io.Writer) error {
	for _, f := range r.sortedFamilies() {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, escapeHelp(f.help), f.name, f.kind.String()); err != nil {
			return err
		}
		for _, s := range f.series {
			if f.kind == kindHistogram {
				if err := writeHistogram(w, f.name, s); err != nil {
					return err
				}
				continue
			}
			if err := writeSample(w, f.name, s.key, "", formatFloat(s.value())); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHistogram(w io.Writer, name string, s *series) error {
	h := s.h
	var cum uint64
	for i, c := range h.counts {
		cum += c
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		if err := writeSample(w, name+"_bucket", s.key, `le="`+le+`"`, strconv.FormatUint(cum, 10)); err != nil {
			return err
		}
	}
	if err := writeSample(w, name+"_sum", s.key, "", formatFloat(h.sum)); err != nil {
		return err
	}
	return writeSample(w, name+"_count", s.key, "", strconv.FormatUint(h.total, 10))
}

// Text renders the registry to a string.
func (r *Registry) Text() string {
	var b strings.Builder
	_ = r.WriteText(&b)
	return b.String()
}

// LintText validates Prometheus text exposition format v0.0.4:
//
//   - every sample line parses as name[{labels}] value [timestamp];
//   - metric and label names are legal, label values are quoted with
//     valid escapes, values parse as Go floats (+Inf/-Inf/NaN allowed);
//   - a family's # TYPE, when present, precedes its samples, is one of
//     the four v0.0.4 types, and appears at most once per name;
//   - # HELP lines carry non-empty help text, and families declared
//     counter are named with the conventional _total suffix (the rule is
//     scoped to # TYPE counter lines, so gauges derived from cumulative
//     stats may keep _total names);
//   - histogram families carry a le label on every _bucket sample, have
//     cumulative (non-decreasing) bucket counts per series, and close
//     each series with a +Inf bucket equal to its _count.
//
// It returns nil for valid input (including empty input).
func LintText(text string) error {
	typed := make(map[string]string)    // family -> type
	seenSample := make(map[string]bool) // family (base name) -> samples emitted
	type histState struct {
		prev    uint64
		infSeen bool
		inf     uint64
		count   uint64
		hasCnt  bool
	}
	hists := make(map[string]*histState) // family + labelkey(without le)
	lineNo := 0
	for _, line := range strings.Split(text, "\n") {
		lineNo++
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			rest, kind := "", ""
			switch {
			case strings.HasPrefix(line, "# HELP "):
				rest, kind = line[len("# HELP "):], "help"
			case strings.HasPrefix(line, "# TYPE "):
				rest, kind = line[len("# TYPE "):], "type"
			default:
				// Other comments are legal and ignored.
				continue
			}
			name, arg, _ := strings.Cut(rest, " ")
			if !validMetricName(name) {
				return fmt.Errorf("line %d: bad metric name %q in # %s", lineNo, name, strings.ToUpper(kind))
			}
			if kind == "help" && strings.TrimSpace(arg) == "" {
				return fmt.Errorf("line %d: empty HELP for %s", lineNo, name)
			}
			if kind == "type" {
				switch arg {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: bad type %q for %s", lineNo, arg, name)
				}
				if _, dup := typed[name]; dup {
					return fmt.Errorf("line %d: duplicate # TYPE for %s", lineNo, name)
				}
				if seenSample[name] {
					return fmt.Errorf("line %d: # TYPE for %s after its samples", lineNo, name)
				}
				if arg == "counter" && !strings.HasSuffix(name, "_total") {
					return fmt.Errorf("line %d: counter %s lacks the _total suffix", lineNo, name)
				}
				typed[name] = arg
			}
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
		base := histBase(name, typed)
		seenSample[base] = true
		if typed[base] != "histogram" {
			continue
		}
		// Histogram-specific checks keyed by series (labels minus le).
		le, rest := extractLE(labels)
		skey := base + "{" + rest + "}"
		st := hists[skey]
		if st == nil {
			st = &histState{}
			hists[skey] = st
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			if le == "" {
				return fmt.Errorf("line %d: histogram bucket %s without le label", lineNo, name)
			}
			n, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				return fmt.Errorf("line %d: bucket count %q not an integer", lineNo, value)
			}
			if n < st.prev {
				return fmt.Errorf("line %d: bucket counts of %s not cumulative (%d < %d)", lineNo, skey, n, st.prev)
			}
			st.prev = n
			if le == "+Inf" {
				st.infSeen = true
				st.inf = n
			}
		case strings.HasSuffix(name, "_count"):
			n, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				return fmt.Errorf("line %d: count %q not an integer", lineNo, value)
			}
			st.count = n
			st.hasCnt = true
		}
	}
	for skey, st := range hists {
		if !st.infSeen {
			return fmt.Errorf("histogram %s has no +Inf bucket", skey)
		}
		if st.hasCnt && st.inf != st.count {
			return fmt.Errorf("histogram %s: +Inf bucket %d != count %d", skey, st.inf, st.count)
		}
	}
	return nil
}

// histBase maps a sample name to its family name: for histogram
// families, _bucket/_sum/_count samples belong to the base name.
func histBase(name string, typed map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if typed[base] == "histogram" || typed[base] == "summary" {
				return base
			}
		}
	}
	return name
}

// extractLE splits the le label out of a rendered label set, returning
// its value and the remaining labels.
func extractLE(labels string) (le, rest string) {
	var kept []string
	for _, part := range splitLabels(labels) {
		if v, ok := strings.CutPrefix(part, `le="`); ok {
			le = strings.TrimSuffix(v, `"`)
			continue
		}
		kept = append(kept, part)
	}
	return le, strings.Join(kept, ",")
}

// splitLabels splits a label body on commas outside quotes.
func splitLabels(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// parseSample parses `name[{labels}] value [timestamp]`.
func parseSample(line string) (name, labels, value string, err error) {
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return "", "", "", fmt.Errorf("sample %q has no value", line)
	} else {
		name, rest = rest[:i], rest[i:]
	}
	if !validMetricName(name) {
		return "", "", "", fmt.Errorf("bad metric name %q", name)
	}
	if strings.HasPrefix(rest, "{") {
		end := -1
		quoted := false
		for i := 1; i < len(rest); i++ {
			switch rest[i] {
			case '\\':
				i++
			case '"':
				quoted = !quoted
			case '}':
				if !quoted {
					end = i
				}
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return "", "", "", fmt.Errorf("unterminated label set in %q", line)
		}
		labels = rest[1:end]
		rest = rest[end+1:]
		for _, part := range splitLabels(labels) {
			ln, lv, ok := strings.Cut(part, "=")
			if !ok || !validLabelName(ln) || len(lv) < 2 || lv[0] != '"' || lv[len(lv)-1] != '"' {
				return "", "", "", fmt.Errorf("bad label %q", part)
			}
		}
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", "", "", fmt.Errorf("sample %q needs `value [timestamp]`", line)
	}
	value = fields[0]
	if _, err := strconv.ParseFloat(value, 64); err != nil {
		return "", "", "", fmt.Errorf("bad value %q", value)
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", "", "", fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return name, labels, value, nil
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || s == "__" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
