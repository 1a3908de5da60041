package testkit

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Exposition-format parser: the validating half of
// telemetry.WritePrometheus. It exists so the tests — down to the
// serving scenarios in cmd/enmc-serve — check a live scrape against
// the same grammar the writer claims to emit, instead of grepping for
// substrings.

// PromSample is one parsed sample line.
type PromSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// PromText is a parsed exposition payload.
type PromText struct {
	// Types maps metric family name → declared type.
	Types map[string]string
	// Samples in input order.
	Samples []PromSample
}

// ParsePrometheus parses text exposition format, enforcing the line
// grammar: `# TYPE name type`, `# HELP ...`, comments, and
// `name[{labels}] value [timestamp]` samples with escaped label
// values. It does not enforce cross-line invariants — Validate does.
func ParsePrometheus(r io.Reader) (*PromText, error) {
	out := &PromText{Types: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && fields[1] == "TYPE" {
				if len(fields) != 4 {
					return nil, fmt.Errorf("line %d: malformed TYPE comment %q", lineNo, line)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown metric type %q", lineNo, fields[3])
				}
				if !validMetricName(fields[2]) {
					return nil, fmt.Errorf("line %d: invalid metric name %q", lineNo, fields[2])
				}
				if prev, dup := out.Types[fields[2]]; dup && prev != fields[3] {
					return nil, fmt.Errorf("line %d: metric %q re-declared as %s (was %s)", lineNo, fields[2], fields[3], prev)
				}
				out.Types[fields[2]] = fields[3]
			}
			continue // HELP and free comments pass through
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		out.Samples = append(out.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func parseSampleLine(line string) (PromSample, error) {
	s := PromSample{}
	rest := line
	// Metric name runs to '{', whitespace, or end.
	i := strings.IndexAny(rest, "{ \t")
	if i < 0 {
		return s, fmt.Errorf("sample %q has no value", line)
	}
	s.Name = rest[:i]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest = rest[i:]
	if rest[0] == '{' {
		labels, tail, err := parseLabelBlock(rest)
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = tail
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("sample %q: want value [timestamp] after name", line)
	}
	v, err := parsePromValue(fields[0])
	if err != nil {
		return s, fmt.Errorf("sample %q: bad value: %w", line, err)
	}
	s.Value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("sample %q: bad timestamp: %w", line, err)
		}
	}
	return s, nil
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// parseLabelBlock consumes `{k="v",...}` handling \\, \" and \n
// escapes, returning the labels and the unconsumed tail.
func parseLabelBlock(s string) (map[string]string, string, error) {
	labels := map[string]string{}
	i := 1 // past '{'
	for {
		// Optional trailing comma then '}' ends the block.
		for i < len(s) && (s[i] == ',' || s[i] == ' ') {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return labels, s[i+1:], nil
		}
		j := strings.IndexByte(s[i:], '=')
		if j < 0 {
			return nil, "", fmt.Errorf("label block %q: missing '='", s)
		}
		key := s[i : i+j]
		if !validMetricName(key) {
			return nil, "", fmt.Errorf("label block %q: invalid label name %q", s, key)
		}
		i += j + 1
		if i >= len(s) || s[i] != '"' {
			return nil, "", fmt.Errorf("label block %q: label value must be quoted", s)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(s) {
				return nil, "", fmt.Errorf("label block %q: unterminated label value", s)
			}
			c := s[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, "", fmt.Errorf("label block %q: dangling escape", s)
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("label block %q: unknown escape \\%c", s, s[i+1])
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		if _, dup := labels[key]; dup {
			return nil, "", fmt.Errorf("label block %q: duplicate label %q", s, key)
		}
		labels[key] = val.String()
	}
}

// Value returns the first sample matching name and the given label
// subset (nil matches any labels).
func (p *PromText) Value(name string, labels map[string]string) (float64, bool) {
	for _, s := range p.Samples {
		if s.Name != name {
			continue
		}
		match := true
		for k, v := range labels {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.Value, true
		}
	}
	return 0, false
}

// labelKeyWithoutLe canonicalizes a sample's labels minus "le" — the
// per-series grouping key for histogram validation.
func labelKeyWithoutLe(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
		b.WriteByte(';')
	}
	return b.String()
}

// Validate enforces the cross-line invariants a Prometheus server
// would: every sample's family is type-declared consistently
// (histogram samples must use the _bucket/_sum/_count suffixes),
// histogram buckets are cumulative (monotone non-decreasing in le
// order), bounds ascend, the +Inf bucket exists, and _count equals
// the +Inf bucket.
func (p *PromText) Validate() error {
	type series struct {
		les    []float64
		counts []float64
		count  float64
		hasCnt bool
	}
	hists := map[string]map[string]*series{} // family → labelKey → series
	get := func(fam, lk string) *series {
		m := hists[fam]
		if m == nil {
			m = map[string]*series{}
			hists[fam] = m
		}
		sr := m[lk]
		if sr == nil {
			sr = &series{}
			m[lk] = sr
		}
		return sr
	}

	for _, s := range p.Samples {
		fam, suffix := s.Name, ""
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(s.Name, suf)
			if base != s.Name && p.Types[base] == "histogram" {
				fam, suffix = base, suf
				break
			}
		}
		typ, declared := p.Types[fam]
		if !declared {
			continue // untyped samples are legal exposition
		}
		if typ == "histogram" && suffix == "" {
			return fmt.Errorf("histogram %q has bare sample %q (want _bucket/_sum/_count)", fam, s.Name)
		}
		switch suffix {
		case "_bucket":
			le, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("%s_bucket sample missing le label", fam)
			}
			bound, err := parsePromValue(le)
			if err != nil {
				return fmt.Errorf("%s_bucket: bad le %q: %w", fam, le, err)
			}
			sr := get(fam, labelKeyWithoutLe(s.Labels))
			sr.les = append(sr.les, bound)
			sr.counts = append(sr.counts, s.Value)
		case "_count":
			sr := get(fam, labelKeyWithoutLe(s.Labels))
			sr.count, sr.hasCnt = s.Value, true
		}
	}

	for fam, m := range hists {
		for lk, sr := range m {
			if len(sr.les) == 0 {
				return fmt.Errorf("histogram %s{%s} has no buckets", fam, lk)
			}
			for i := 1; i < len(sr.les); i++ {
				if sr.les[i] <= sr.les[i-1] {
					return fmt.Errorf("histogram %s{%s}: le bounds not ascending (%g after %g)",
						fam, lk, sr.les[i], sr.les[i-1])
				}
				if sr.counts[i] < sr.counts[i-1] {
					return fmt.Errorf("histogram %s{%s}: bucket counts not cumulative (%g after %g at le=%g)",
						fam, lk, sr.counts[i], sr.counts[i-1], sr.les[i])
				}
			}
			last := len(sr.les) - 1
			if !math.IsInf(sr.les[last], 1) {
				return fmt.Errorf("histogram %s{%s}: missing +Inf bucket", fam, lk)
			}
			if sr.hasCnt && sr.count != sr.counts[last] {
				return fmt.Errorf("histogram %s{%s}: _count %g != +Inf bucket %g",
					fam, lk, sr.count, sr.counts[last])
			}
		}
	}
	return nil
}
