// Command pmsstat is a top-style terminal monitor for a running pmsd: it
// polls GET /metrics, parses the Prometheus exposition with the same
// parser the tests pin the wire format with, and renders the domain
// observability surface — a per-module load heatmap, template-family
// conflict rates, the load-balance ratio and the theorem-bound monitor —
// plus serving-side request rates.
//
//	pmsstat -addr 127.0.0.1:8080 -interval 2s
//	pmsstat -addr 127.0.0.1:8080 -once        # one snapshot, no screen control
//
// Rates (req/s, accesses/s) need two polls; the first frame shows
// cumulative values only.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "pmsd address (host:port or full URL)")
	interval := flag.Duration("interval", 2*time.Second, "poll interval")
	once := flag.Bool("once", false, "print one snapshot and exit (no screen clearing)")
	barWidth := flag.Int("bar-width", 40, "width of the module heatmap bars")
	flag.Parse()
	if *interval <= 0 {
		fmt.Fprintln(os.Stderr, "-interval must be positive")
		os.Exit(2)
	}
	if *barWidth < 1 {
		fmt.Fprintln(os.Stderr, "-bar-width must be at least 1")
		os.Exit(2)
	}

	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	url := strings.TrimSuffix(base, "/") + "/metrics"
	client := &http.Client{Timeout: 5 * time.Second}

	var prev *metrics.Scrape
	var prevAt time.Time
	for {
		sc, err := scrape(client, url)
		if err != nil {
			log.Fatalf("scrape %s: %v", url, err)
		}
		now := time.Now()
		frame := render(prev, sc, now.Sub(prevAt), *barWidth)
		if *once {
			fmt.Print(frame)
			return
		}
		// Home + clear-to-end keeps the frame flicker-free in most terminals.
		fmt.Print("\033[H\033[2J" + frame)
		prev, prevAt = sc, now
		time.Sleep(*interval)
	}
}

func scrape(client *http.Client, url string) (*metrics.Scrape, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return metrics.ParseExposition(string(body))
}

// val reads a series value, 0 when absent.
func val(sc *metrics.Scrape, name string, labels ...metrics.Label) float64 {
	v, _ := sc.Value(name, labels...)
	return v
}

// rate formats the per-second delta of a counter between two scrapes,
// or "-" when no previous scrape exists.
func rate(prev, cur *metrics.Scrape, elapsed time.Duration, name string, labels ...metrics.Label) string {
	if prev == nil || elapsed <= 0 {
		return "-"
	}
	d := val(cur, name, labels...) - val(prev, name, labels...)
	if d < 0 { // server restarted between polls
		return "-"
	}
	return fmt.Sprintf("%.1f/s", d/elapsed.Seconds())
}

// moduleLoads extracts the per-module access counters, sorted by module.
type moduleLoad struct {
	Module int
	Count  float64
}

func moduleLoads(sc *metrics.Scrape) []moduleLoad {
	var out []moduleLoad
	for _, s := range sc.Series("pmsd_module_accesses_total") {
		mod, err := strconv.Atoi(s.Label("module"))
		if err != nil {
			continue
		}
		out = append(out, moduleLoad{Module: mod, Count: s.Value})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Module < out[j].Module })
	return out
}

// render builds one full frame from the current scrape (and the previous
// one, for rates). Pure — no clocks, no I/O — so tests pin it exactly.
func render(prev, cur *metrics.Scrape, elapsed time.Duration, barWidth int) string {
	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }

	w("pmsd /metrics\n\n")

	// Serving side: request totals and rates of every endpoint the scrape
	// carries, in exposition order.
	w("requests      ")
	for _, s := range cur.Series("pmsd_endpoint_requests_total") {
		ep := s.Label("endpoint")
		w("%s %.0f (%s)  ", ep, s.Value,
			rate(prev, cur, elapsed, "pmsd_endpoint_requests_total", metrics.Label{Name: "endpoint", Value: ep}))
	}
	w("\n")
	w("backpressure  inflight %.0f  queue %.0f  rejected_429 %.0f\n",
		val(cur, "pmsd_inflight"), val(cur, "pmsd_queue_depth"), val(cur, "pmsd_rejected_429_total"))
	memHits := val(cur, "pmsd_registry_acquire_hits_total")
	diskHits := val(cur, "pmsd_registry_acquire_disk_hits_total")
	materializes := val(cur, "pmsd_registry_acquire_materializes_total")
	w("registry      acquire hits %.0f  disk hits %.0f  materializes %.0f  bytes %.0f\n",
		memHits, diskHits, materializes, val(cur, "pmsd_registry_bytes"))
	// pmsd exports the pmsd_store_* series unconditionally (zeros when
	// memory-only), so this line normally always renders; gating on the
	// series keeps pmsstat graceful against scrapes that predate the
	// disk tier.
	if entries, ok := cur.Value("pmsd_store_entries"); ok {
		ratio := "-"
		if total := memHits + diskHits + materializes; total > 0 {
			ratio = fmt.Sprintf("%.3f", (memHits+diskHits)/total)
		}
		w("disk tier     entries %.0f (%.1f MiB)  spills %.0f  corrupt %.0f  tier hit ratio %s\n",
			entries, val(cur, "pmsd_store_bytes")/(1<<20),
			val(cur, "pmsd_store_spills_total"), val(cur, "pmsd_store_corrupt_total"), ratio)
	}
	w("\n")

	// Domain: accesses, conflicts and the load-balance gauges.
	batches := val(cur, "pmsd_batches_total")
	conflicts := val(cur, "pmsd_conflicts_total")
	perBatch := 0.0
	if batches > 0 {
		perBatch = conflicts / batches
	}
	w("accesses      %.0f (%s)  batches %.0f  conflicts %.0f (%.3f/batch)\n",
		val(cur, "pmsd_accesses_total"), rate(prev, cur, elapsed, "pmsd_accesses_total"),
		batches, conflicts, perBatch)
	w("load balance  active %.0f modules  max %.0f @ module %.0f  mean %.2f  ratio %.3f\n",
		val(cur, "pmsd_module_active"), val(cur, "pmsd_module_load_max"),
		val(cur, "pmsd_module_hottest"), val(cur, "pmsd_module_load_mean"),
		val(cur, "pmsd_module_load_ratio"))

	violations := val(cur, "pmsd_bound_violations_total")
	status := "ok"
	if violations > 0 {
		status = "VIOLATION"
	}
	w("bound monitor checks %.0f  skipped %.0f  violations %.0f  [%s]\n",
		val(cur, "pmsd_bound_checks_total"), val(cur, "pmsd_bound_checks_skipped_total"),
		violations, status)

	// Adaptive mapping controller: decision/migration counters plus one
	// dwell row per policy-managed spec. Gated on the series so scrapes
	// from a pmsd predating the controller render unchanged.
	if decisions, ok := cur.Value("pmsd_controller_decisions_total"); ok {
		w("controller    decisions %.0f (%s)  migrations %.0f  shadow evals %.0f\n",
			decisions, rate(prev, cur, elapsed, "pmsd_controller_decisions_total"),
			val(cur, "pmsd_controller_migrations_total"),
			val(cur, "pmsd_controller_shadow_evals_total"))
		for _, s := range cur.Series("pmsd_controller_dwell_seconds") {
			spec := s.Label("spec")
			w("  %-24s dwell %.0fs  migrations %.0f\n", spec, s.Value,
				val(cur, "pmsd_controller_migrations", metrics.Label{Name: "spec", Value: spec}))
		}
	}

	// SLO watchdog / flight recorder: gated on the series so scrapes
	// from a pmsd predating the forensics layer render unchanged.
	if breaches, ok := cur.Value("pmsd_slo_breaches_total"); ok {
		status := "ok"
		if breaches > val(cur, "pmsd_slo_recoveries_total") {
			status = "BREACHED"
		}
		w("slo watchdog  breaches %.0f (%s)  recoveries %.0f  snapshots %.0f (rate-limited %.0f)  events %.0f  [%s]\n",
			breaches, rate(prev, cur, elapsed, "pmsd_slo_breaches_total"),
			val(cur, "pmsd_slo_recoveries_total"),
			val(cur, "pmsd_flightrec_snapshots_total"),
			val(cur, "pmsd_flightrec_snapshots_rate_limited_total"),
			val(cur, "pmsd_flightrec_events_total"), status)
		for _, s := range cur.Series("pmsd_slo_rule_breaches_total") {
			w("  rule %-18s breaches %.0f\n", s.Label("rule"), s.Value)
		}
	}
	w("\n")

	// Template-family conflict rates from the cumulative histograms.
	if fams := familyRows(cur); len(fams) > 0 {
		w("family conflicts\n")
		for _, f := range fams {
			w("  %-2s observations %.0f  mean %.3f  max bucket le=%s\n", f.name, f.count, f.mean, f.maxLE)
		}
		w("\n")
	}

	// Per-module heatmap, bars scaled to the hottest module.
	loads := moduleLoads(cur)
	if len(loads) > 0 {
		maxC := loads[0].Count
		for _, l := range loads {
			if l.Count > maxC {
				maxC = l.Count
			}
		}
		w("module heatmap (%d modules)\n", len(loads))
		for _, l := range loads {
			n := 0
			if maxC > 0 {
				n = int(l.Count / maxC * float64(barWidth))
			}
			w("  m%-3d %10.0f (%s) %s\n", l.Module, l.Count,
				rate(prev, cur, elapsed, "pmsd_module_accesses_total",
					metrics.Label{Name: "module", Value: strconv.Itoa(l.Module)}),
				strings.Repeat("#", n))
		}
	} else {
		w("module heatmap: no accesses recorded yet\n")
	}
	return b.String()
}

type familyRow struct {
	name  string
	count float64
	mean  float64
	maxLE string
}

// familyRows summarizes each family's conflict histogram: observation
// count, mean conflicts, and the highest non-empty bucket bound.
func familyRows(sc *metrics.Scrape) []familyRow {
	var rows []familyRow
	for _, fam := range metrics.Families {
		lbl := metrics.Label{Name: "family", Value: fam}
		count, ok := sc.Value("pmsd_template_conflicts_count", lbl)
		if !ok || count == 0 {
			continue
		}
		sum := val(sc, "pmsd_template_conflicts_sum", lbl)
		row := familyRow{name: fam, count: count, mean: sum / count}
		// The exposition orders buckets ascending; the last finite one
		// before +Inf is the highest observed magnitude.
		for _, s := range sc.Series("pmsd_template_conflicts_bucket") {
			if s.Label("family") == fam && s.Label("le") != "+Inf" {
				row.maxLE = s.Label("le")
			}
		}
		rows = append(rows, row)
	}
	return rows
}
