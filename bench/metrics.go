package main

// metricDef is one reported metric. The end-to-end and per-layer lists
// below are the benchmark's schema: BENCHMARK.json mirrors them and
// bench_test.go keeps the two in step.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	bound float64
	// moves and on name, for a per-layer metric, the end-to-end metric
	// and the workload a change to that layer should move — the
	// prediction written down before measuring.
	moves, on string
}

// The bounds come from three sets of ten seeded runs on the 2-vCPU box
// the benchmark was built on, whose speed drifts by tens of percent over
// minutes. The widest spread (IQR over median) seen on any workload was
// 14.9% for throughput, 20.9% for p50 and 19.9% for p99, all on
// template-mix or batch-color, so those three take the widest bound
// allowed, which setup_s must not be below; rss spread at most 9.2%.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "throughput_rps", unit: "req/s", better: "higher", bound: 0.25},
	{name: "latency_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "latency_p99_us", unit: "us", better: "lower", bound: 0.25},
	{name: "rss_mb", unit: "MB", better: "lower", bound: 0.2},
}

var perLayer = []metricDef{
	{name: "pmsd.cpu_us_per_req", unit: "us", better: "lower", moves: "throughput_rps", on: "all"},
	{name: "http.transport_us", unit: "us", better: "lower", moves: "latency_p50_us", on: "point-color"},
	{name: "codec.decode_us", unit: "us", better: "lower", moves: "throughput_rps", on: "batch-color"},
	{name: "codec.encode_us", unit: "us", better: "lower", moves: "throughput_rps", on: "batch-color"},
	{name: "codec.req_bytes", unit: "bytes", better: "lower", moves: "throughput_rps", on: "batch-color"},
	{name: "codec.resp_bytes", unit: "bytes", better: "lower", moves: "throughput_rps", on: "batch-color"},
	{name: "coalescer.wait_us", unit: "us", better: "lower", moves: "latency_p50_us", on: "point-color"},
	{name: "coalescer.batch_size", unit: "count", better: "higher", moves: "throughput_rps", on: "point-color"},
	{name: "pool.admission_wait_us", unit: "us", better: "lower", moves: "latency_p50_us", on: "point-color"},
	{name: "pool.rejected_429", unit: "count", better: "lower", moves: "throughput_rps", on: "point-color"},
	{name: "registry.hit_ratio", unit: "ratio", better: "higher", moves: "latency_p99_us", on: "spec-churn"},
	{name: "registry.hit_us", unit: "us", better: "lower", moves: "latency_p99_us", on: "spec-churn"},
	{name: "registry.materialize_us", unit: "us", better: "lower", moves: "setup_s", on: "spec-churn"},
	{name: "registry.evictions", unit: "count", better: "lower", moves: "latency_p99_us", on: "spec-churn"},
	{name: "mapstore.load_us", unit: "us", better: "lower", moves: "latency_p99_us", on: "spec-churn"},
	{name: "mapstore.disk_hit_ratio", unit: "ratio", better: "higher", moves: "latency_p99_us", on: "spec-churn"},
	{name: "mapstore.spill_drop_ratio", unit: "ratio", better: "lower", moves: "latency_p99_us", on: "spec-churn"},
	{name: "kernel.ns_per_node", unit: "ns", better: "lower", moves: "throughput_rps", on: "batch-color"},
	{name: "kernel.batch_compute_us", unit: "us", better: "lower", moves: "throughput_rps", on: "batch-color"},
	{name: "kernel.kernel_ratio", unit: "ratio", better: "lower", moves: "throughput_rps", on: "batch-color"},
	{name: "template.cost_us", unit: "us", better: "lower", moves: "throughput_rps", on: "template-mix"},
	{name: "domain.check_us", unit: "us", better: "lower", moves: "throughput_rps", on: "template-mix"},
	{name: "domain.bound_checks", unit: "count", better: "higher", moves: "throughput_rps", on: "template-mix"},
	{name: "domain.load_ratio", unit: "ratio", better: "lower", moves: "throughput_rps", on: "template-mix"},
	{name: "sim.heap_us", unit: "us", better: "lower", moves: "latency_p99_us", on: "template-mix"},
	{name: "sim.range_us", unit: "us", better: "lower", moves: "latency_p99_us", on: "template-mix"},
	{name: "sim.cycles", unit: "cycles/req", better: "lower", moves: "latency_p99_us", on: "template-mix"},
	{name: "capture.flightrec_events", unit: "count", better: "higher", moves: "latency_p50_us", on: "point-color"},
	{name: "capture.flightrec_evicted", unit: "count", better: "lower", moves: "latency_p50_us", on: "point-color"},
	{name: "ablation.flightrec_p50_us", unit: "us", better: "lower", moves: "latency_p50_us", on: "point-color"},
	{name: "ablation.obsv_p50_us", unit: "us", better: "lower", moves: "latency_p50_us", on: "point-color"},
	{name: "ablation.domain_p50_us", unit: "us", better: "lower", moves: "latency_p50_us", on: "template-mix"},
	{name: "ablation.coalesce_p50_us", unit: "us", better: "lower", moves: "latency_p50_us", on: "point-color"},
	{name: "trace.overhead_pct", unit: "%", better: "lower", moves: "throughput_rps", on: "point-color"},
	{name: "layer.unattributed_us", unit: "us", better: "lower", moves: "latency_p50_us", on: "point-color"},
}

// ablations are the pmsd flags that switch one layer off, keyed by the
// per-layer metric holding p50(layer on) − p50(layer off).
var ablations = []struct {
	metric string
	flags  []string
}{
	{"ablation.flightrec_p50_us", []string{"-no-flightrec"}},
	{"ablation.obsv_p50_us", []string{"-trace-sample", "0"}},
	{"ablation.domain_p50_us", []string{"-no-domain-metrics"}},
	{"ablation.coalesce_p50_us", []string{"-flush", "0"}},
}

func unitOf(name string) string {
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}
