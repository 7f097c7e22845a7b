package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

const expoT0 = `# TYPE pmsd_endpoint_requests_total counter
pmsd_endpoint_requests_total{endpoint="color"} 100
pmsd_endpoint_requests_total{endpoint="template_cost"} 10
pmsd_endpoint_requests_total{endpoint="simulate"} 0
# TYPE pmsd_accesses_total counter
pmsd_accesses_total 1000
# TYPE pmsd_module_accesses_total counter
pmsd_module_accesses_total{module="0"} 600
pmsd_module_accesses_total{module="2"} 400
`

const expoT1 = `# TYPE pmsd_endpoint_requests_total counter
pmsd_endpoint_requests_total{endpoint="color"} 150
pmsd_endpoint_requests_total{endpoint="template_cost"} 10
pmsd_endpoint_requests_total{endpoint="simulate"} 0
# TYPE pmsd_inflight gauge
pmsd_inflight 3
# TYPE pmsd_queue_depth gauge
pmsd_queue_depth 2
# TYPE pmsd_accesses_total counter
pmsd_accesses_total 2000
# TYPE pmsd_module_active gauge
pmsd_module_active 2
# TYPE pmsd_module_hottest gauge
pmsd_module_hottest 0
# TYPE pmsd_module_load_max gauge
pmsd_module_load_max 1200
# TYPE pmsd_module_load_mean gauge
pmsd_module_load_mean 1000
# TYPE pmsd_module_load_ratio gauge
pmsd_module_load_ratio 1.2
# TYPE pmsd_batches_total counter
pmsd_batches_total 50
# TYPE pmsd_conflicts_total counter
pmsd_conflicts_total 25
# TYPE pmsd_bound_checks_total counter
pmsd_bound_checks_total 10
# TYPE pmsd_bound_violations_total counter
pmsd_bound_violations_total 0
# TYPE pmsd_bound_checks_skipped_total counter
pmsd_bound_checks_skipped_total 1
# TYPE pmsd_registry_acquire_hits_total counter
pmsd_registry_acquire_hits_total 70
# TYPE pmsd_registry_acquire_disk_hits_total counter
pmsd_registry_acquire_disk_hits_total 20
# TYPE pmsd_registry_acquire_materializes_total counter
pmsd_registry_acquire_materializes_total 10
# TYPE pmsd_store_entries gauge
pmsd_store_entries 4
# TYPE pmsd_store_bytes gauge
pmsd_store_bytes 3145728
# TYPE pmsd_store_spills_total counter
pmsd_store_spills_total 6
# TYPE pmsd_store_corrupt_total counter
pmsd_store_corrupt_total 0
# TYPE pmsd_controller_decisions_total counter
pmsd_controller_decisions_total 12
# TYPE pmsd_controller_migrations_total counter
pmsd_controller_migrations_total 1
# TYPE pmsd_controller_shadow_evals_total counter
pmsd_controller_shadow_evals_total 36
# TYPE pmsd_controller_dwell_seconds gauge
pmsd_controller_dwell_seconds{spec="levelcyclic/H=12/M=15"} 42
# TYPE pmsd_controller_migrations gauge
pmsd_controller_migrations{spec="levelcyclic/H=12/M=15"} 1
# TYPE pmsd_flightrec_events_total counter
pmsd_flightrec_events_total 140
# TYPE pmsd_flightrec_snapshots_total counter
pmsd_flightrec_snapshots_total 1
# TYPE pmsd_flightrec_snapshots_rate_limited_total counter
pmsd_flightrec_snapshots_rate_limited_total 2
# TYPE pmsd_slo_breaches_total counter
pmsd_slo_breaches_total 3
# TYPE pmsd_slo_recoveries_total counter
pmsd_slo_recoveries_total 3
# TYPE pmsd_slo_rule_breaches_total counter
pmsd_slo_rule_breaches_total{rule="error_rate"} 3
# TYPE pmsd_template_conflicts histogram
pmsd_template_conflicts_bucket{family="S",le="0"} 4
pmsd_template_conflicts_bucket{family="S",le="1"} 8
pmsd_template_conflicts_bucket{family="S",le="+Inf"} 8
pmsd_template_conflicts_sum{family="S"} 4
pmsd_template_conflicts_count{family="S"} 8
# TYPE pmsd_module_accesses_total counter
pmsd_module_accesses_total{module="0"} 1200
pmsd_module_accesses_total{module="2"} 800
`

func parse(t *testing.T, expo string) *metrics.Scrape {
	t.Helper()
	sc, err := metrics.ParseExposition(expo)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestRenderFirstFrame checks the no-previous-scrape frame: cumulative
// values shown, every rate a dash.
func TestRenderFirstFrame(t *testing.T) {
	out := render(nil, parse(t, expoT0), 0, 20)
	for _, want := range []string{
		"color 100 (-)",
		"accesses      1000 (-)",
		"m0          600 (-)",
		"m2          400 (-)",
		"module heatmap (2 modules)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("first frame missing %q:\n%s", want, out)
		}
	}
}

// TestRenderRatesAndGauges checks the second frame: counter deltas turn
// into per-second rates, gauges and the bound monitor render, and the
// heatmap scales bars to the hottest module.
func TestRenderRatesAndGauges(t *testing.T) {
	prev, cur := parse(t, expoT0), parse(t, expoT1)
	out := render(prev, cur, 10*time.Second, 20)
	for _, want := range []string{
		"color 150 (5.0/s)",
		"template_cost 10 (0.0/s)",
		"inflight 3  queue 2",
		"accesses      2000 (100.0/s)",
		"conflicts 25 (0.500/batch)",
		"max 1200 @ module 0",
		"ratio 1.200",
		"acquire hits 70  disk hits 20  materializes 10",
		"disk tier     entries 4 (3.0 MiB)  spills 6  corrupt 0  tier hit ratio 0.900",
		"checks 10  skipped 1  violations 0  [ok]",
		"controller    decisions 12 (1.2/s)  migrations 1  shadow evals 36",
		"levelcyclic/H=12/M=15    dwell 42s  migrations 1",
		"slo watchdog  breaches 3 (0.3/s)  recoveries 3  snapshots 1 (rate-limited 2)  events 140  [ok]",
		"rule error_rate",
		"S  observations 8  mean 0.500  max bucket le=1",
		"m0         1200 (60.0/s) " + strings.Repeat("#", 20),
		"m2          800 (40.0/s) " + strings.Repeat("#", 13),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "VIOLATION") {
		t.Error("zero violations must render [ok]")
	}
}

// TestRenderEveryEndpoint checks that the requests row renders each
// endpoint series the scrape carries, in exposition order, the heap and
// range endpoints included.
func TestRenderEveryEndpoint(t *testing.T) {
	const expo = `# TYPE pmsd_endpoint_requests_total counter
pmsd_endpoint_requests_total{endpoint="color"} 7
pmsd_endpoint_requests_total{endpoint="heap_run"} 4
pmsd_endpoint_requests_total{endpoint="range_query"} 30
`
	const next = `# TYPE pmsd_endpoint_requests_total counter
pmsd_endpoint_requests_total{endpoint="color"} 7
pmsd_endpoint_requests_total{endpoint="heap_run"} 8
pmsd_endpoint_requests_total{endpoint="range_query"} 50
`
	out := render(parse(t, expo), parse(t, next), 2*time.Second, 10)
	want := "requests      color 7 (0.0/s)  heap_run 8 (2.0/s)  range_query 50 (10.0/s)  \n"
	if !strings.Contains(out, want) {
		t.Errorf("frame missing %q:\n%s", want, out)
	}
}

// TestRenderViolationFlag checks the alarm path.
func TestRenderViolationFlag(t *testing.T) {
	sc := parse(t, "pmsd_bound_violations_total 3\n")
	out := render(nil, sc, 0, 10)
	if !strings.Contains(out, "[VIOLATION]") {
		t.Errorf("violations > 0 must render [VIOLATION]:\n%s", out)
	}
}

// TestRenderEmptyScrape: a scrape with no domain series still renders.
func TestRenderEmptyScrape(t *testing.T) {
	out := render(nil, parse(t, ""), 0, 10)
	if !strings.Contains(out, "no accesses recorded yet") {
		t.Errorf("empty scrape frame:\n%s", out)
	}
}

// TestRenderNoStore: a pmsd without -store-dir exports no pmsd_store_*
// series, and the disk-tier line must stay out of the frame.
func TestRenderNoStore(t *testing.T) {
	out := render(nil, parse(t, expoT0), 0, 10)
	if strings.Contains(out, "disk tier") {
		t.Errorf("storeless scrape must not render a disk-tier line:\n%s", out)
	}
}

// TestRenderSLOGating: scrapes predating the flight recorder carry no
// pmsd_slo_* series and must not render the watchdog line; an active
// breach (more breaches than recoveries) flags BREACHED.
func TestRenderSLOGating(t *testing.T) {
	out := render(nil, parse(t, expoT0), 0, 10)
	if strings.Contains(out, "slo watchdog") {
		t.Errorf("pre-forensics scrape must not render an slo line:\n%s", out)
	}
	sc := parse(t, "pmsd_slo_breaches_total 2\npmsd_slo_recoveries_total 1\n")
	out = render(nil, sc, 0, 10)
	if !strings.Contains(out, "[BREACHED]") {
		t.Errorf("active breach must render [BREACHED]:\n%s", out)
	}
}
