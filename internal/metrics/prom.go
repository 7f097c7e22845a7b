package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obsv"
)

// Prometheus text-exposition writer (version 0.0.4 of the format: TYPE
// comment lines, `name{label="value"} value` series, histograms as
// cumulative _bucket/_sum/_count families). The writer is deliberately
// deterministic — series appear in exactly the order the caller emits
// them and label sets are written verbatim — so the full exposition can
// be pinned byte-for-byte by golden tests.

// Label is one name="value" pair of a series.
type Label struct {
	Name, Value string
}

// Expo accumulates one exposition. Errors from the underlying writer are
// sticky and surfaced by Err, so call sites chain emissions without
// per-line checks.
type Expo struct {
	w     io.Writer
	err   error
	typed map[string]struct{}
}

// NewExpo starts an exposition writing to w.
func NewExpo(w io.Writer) *Expo {
	return &Expo{w: w, typed: make(map[string]struct{})}
}

// Err returns the first underlying write error, if any.
func (e *Expo) Err() error { return e.err }

func (e *Expo) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

// typeLine writes the # TYPE header for a metric family once per
// exposition; repeated emissions under the same family (e.g. one series
// per label value) share the first header.
func (e *Expo) typeLine(name, typ string) {
	if _, done := e.typed[name]; done {
		return
	}
	e.typed[name] = struct{}{}
	e.printf("# TYPE %s %s\n", name, typ)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(v)
}

func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// FormatValue renders a sample value the way the exposition format
// expects: shortest round-trip float, with +Inf spelled out.
func FormatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter emits one counter series (TYPE header on first use of name).
func (e *Expo) Counter(name string, labels []Label, v int64) {
	e.typeLine(name, "counter")
	e.printf("%s%s %d\n", name, labelString(labels), v)
}

// Gauge emits one gauge series.
func (e *Expo) Gauge(name string, labels []Label, v float64) {
	e.typeLine(name, "gauge")
	e.printf("%s%s %s\n", name, labelString(labels), FormatValue(v))
}

// GaugeInt emits one integer-valued gauge series.
func (e *Expo) GaugeInt(name string, labels []Label, v int64) {
	e.typeLine(name, "gauge")
	e.printf("%s%s %d\n", name, labelString(labels), v)
}

// Histogram emits one obsv power-of-two histogram as a cumulative
// Prometheus histogram: _bucket series with inclusive upper bounds
// le="2^i-1" (obsv buckets hold exactly the values ≤ their BucketUpper,
// so the buckets translate without re-bucketing), a trailing le="+Inf"
// bucket, then _sum and _count. Empty interior buckets are elided to
// keep expositions compact; cumulative counts are unaffected.
func (e *Expo) Histogram(name string, labels []Label, h *obsv.Histogram) {
	if h == nil {
		return
	}
	count, sum, buckets := h.Load()
	e.typeLine(name, "histogram")
	var cum int64
	for i := 0; i < obsv.NumBuckets-1; i++ {
		if buckets[i] == 0 {
			continue
		}
		cum += buckets[i]
		bl := append(append([]Label{}, labels...), Label{"le", strconv.FormatInt(obsv.BucketUpper(i), 10)})
		e.printf("%s_bucket%s %d\n", name, labelString(bl), cum)
	}
	infl := append(append([]Label{}, labels...), Label{"le", "+Inf"})
	e.printf("%s_bucket%s %d\n", name, labelString(infl), count)
	e.printf("%s_sum%s %d\n", name, labelString(labels), sum)
	e.printf("%s_count%s %d\n", name, labelString(labels), count)
}

// WriteDomain renders the domain metrics of d under the given name
// prefix (conventionally "pmsd"). Nil-safe: a disabled domain renders
// the bound counters (all zero) and load gauges only, so scrapers see a
// stable schema either way.
func WriteDomain(e *Expo, prefix string, d *Domain) {
	s := d.Snapshot()
	WriteDomainSnapshot(e, prefix, d, s)
}

// WriteDomainSnapshot renders a previously-taken snapshot; d is only
// consulted for raw family histogram buckets and may be nil (family
// histograms are then skipped).
func WriteDomainSnapshot(e *Expo, prefix string, d *Domain, s DomainSnapshot) {
	for mod, n := range s.ModuleAccesses {
		if n == 0 {
			continue
		}
		e.Counter(prefix+"_module_accesses_total", []Label{{"module", strconv.Itoa(mod)}}, n)
	}
	e.Counter(prefix+"_accesses_total", nil, s.TotalAccesses)
	e.Counter(prefix+"_module_accesses_overflow_total", nil, s.Overflow)
	e.GaugeInt(prefix+"_module_active", nil, int64(s.ActiveModules))
	e.GaugeInt(prefix+"_module_hottest", nil, int64(s.MaxModule))
	e.GaugeInt(prefix+"_module_load_max", nil, s.MaxLoad)
	e.Gauge(prefix+"_module_load_mean", nil, s.MeanLoad)
	e.Gauge(prefix+"_module_load_ratio", nil, s.LoadRatio)
	e.Counter(prefix+"_batches_total", nil, s.Batches)
	e.Counter(prefix+"_conflicts_total", nil, s.Conflicts)
	if d != nil {
		for _, fam := range Families {
			h := d.FamilyHist(fam)
			if c, _, _ := h.Load(); c == 0 {
				continue
			}
			e.Histogram(prefix+"_template_conflicts", []Label{{"family", fam}}, h)
		}
	}
	for _, sp := range s.Specs {
		for _, f := range sp.Families {
			e.Counter(prefix+"_spec_template_observations_total",
				[]Label{{"spec", sp.Key}, {"family", f.Family}}, f.Observations)
		}
	}
	for _, sp := range s.Specs {
		for _, f := range sp.Families {
			e.Counter(prefix+"_spec_template_conflicts_total",
				[]Label{{"spec", sp.Key}, {"family", f.Family}}, f.Conflicts)
		}
	}
	e.Counter(prefix+"_bound_checks_total", nil, s.BoundChecks)
	e.Counter(prefix+"_bound_violations_total", nil, s.BoundViolations)
	e.Counter(prefix+"_bound_checks_skipped_total", nil, s.BoundSkipped)
}

// Sample is one parsed series: a metric name, its label set, and the
// value. Histograms parse into their constituent _bucket/_sum/_count
// samples.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Label returns the value of one label ("" when absent).
func (s Sample) Label(name string) string { return s.Labels[name] }

// Scrape is a parsed exposition, ordered as served.
type Scrape struct {
	Samples []Sample
	index   map[string][]int
}

// Series returns every sample of the named metric, in exposition order.
func (sc *Scrape) Series(name string) []Sample {
	idxs := sc.index[name]
	out := make([]Sample, 0, len(idxs))
	for _, i := range idxs {
		out = append(out, sc.Samples[i])
	}
	return out
}

// Value returns the value of the first series of name whose labels
// include every given pair, and whether one was found.
func (sc *Scrape) Value(name string, labels ...Label) (float64, bool) {
	for _, i := range sc.index[name] {
		s := sc.Samples[i]
		match := true
		for _, l := range labels {
			if s.Labels[l.Name] != l.Value {
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

// Names returns the distinct metric names present, sorted.
func (sc *Scrape) Names() []string {
	names := make([]string, 0, len(sc.index))
	for n := range sc.index {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ParseExposition parses Prometheus text exposition format (the subset
// Expo emits plus arbitrary whitespace and comments) into a Scrape.
// Malformed lines fail the whole parse with their line number, making
// the parser double as a format validator in tests.
func ParseExposition(data string) (*Scrape, error) {
	sc := &Scrape{index: make(map[string][]int)}
	for ln, line := range strings.Split(data, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sample, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("metrics: exposition line %d: %w", ln+1, err)
		}
		sc.index[sample.Name] = append(sc.index[sample.Name], len(sc.Samples))
		sc.Samples = append(sc.Samples, sample)
	}
	return sc, nil
}

func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ \t"); i < 0 {
		return s, fmt.Errorf("no value in %q", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if s.Name == "" {
		return s, fmt.Errorf("empty metric name in %q", line)
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		if err := parseLabels(rest[1:end], s.Labels); err != nil {
			return s, err
		}
		rest = rest[end+1:]
	}
	rest = strings.TrimSpace(rest)
	// A trailing timestamp (space-separated) is permitted by the format;
	// take the first field as the value.
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest = rest[:i]
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %v", rest, err)
	}
	s.Value = v
	return s, nil
}

func parseLabels(body string, into map[string]string) error {
	i := 0
	for i < len(body) {
		eq := strings.IndexByte(body[i:], '=')
		if eq < 0 {
			return fmt.Errorf("label without '=' in %q", body)
		}
		name := strings.TrimSpace(body[i : i+eq])
		i += eq + 1
		if i >= len(body) || body[i] != '"' {
			return fmt.Errorf("unquoted label value in %q", body)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(body) {
				return fmt.Errorf("unterminated label value in %q", body)
			}
			c := body[i]
			if c == '\\' && i+1 < len(body) {
				switch body[i+1] {
				case 'n':
					val.WriteByte('\n')
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				default:
					val.WriteByte(body[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		into[name] = val.String()
		if i < len(body) && body[i] == ',' {
			i++
		}
	}
	return nil
}
