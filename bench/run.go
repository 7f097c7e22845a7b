package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	dm "repro/internal/metrics"
	"repro/internal/report"
)

// buildDir holds everything a run builds or writes, relative to the
// repository root; the root .gitignore lists it.
const buildDir = ".bench_build"

// env is what every run shares: the repository, the built pmsd and a
// scratch directory removed when the benchmark exits.
type env struct {
	root, bin, tmp string
}

// runCfg is one run: a fresh set of pmsd processes against one workload.
type runCfg struct {
	w              workloadDef
	seed           int64
	window, warmup time.Duration
	setups         int
	traced         bool
}

// result is what one run measured.
type result struct {
	Workload        string             `json:"workload"`
	Seed            int64              `json:"seed"`
	Correct         bool               `json:"correct"`
	Attempted       int64              `json:"attempted"`
	Failed          int64              `json:"failed"`
	ErrorPct        float64            `json:"error_pct"`
	Verified        int                `json:"verified"`
	Mismatches      int                `json:"mismatches"`
	FirstMismatch   string             `json:"first_mismatch,omitempty"`
	BoundViolations int64              `json:"bound_violations"`
	ModelConflicts  int64              `json:"model_conflicts"`
	LatencySamples  int                `json:"latency_samples"`
	Metrics         map[string]float64 `json:"metrics"`         // end to end
	Layer           map[string]float64 `json:"layer,omitempty"` // per layer, traced runs only
	Layers          []layerRow         `json:"layers,omitempty"`
	MeanUS          float64            `json:"latency_mean_us,omitempty"` // traced runs: the layer table's total
	HandlerP50US    float64            `json:"handler_p50_us,omitempty"`

	spans *recorder
}

// layerRow is one row of the traced run's time table: µs per request
// attributed to one layer; the rows sum to the end-to-end mean.
type layerRow struct {
	Layer  string  `json:"layer"`
	US     float64 `json:"us"`
	Source string  `json:"source"` // live: pmsd's own counters; replay: in-process spans
}

// launch starts pmsd for w and primes it; the returned duration is the
// set-up time, from exec until every spec in the priming list answered.
func launch(ctx context.Context, e env, w workloadDef, extra []string) (*proc, float64, error) {
	var args []string
	var dir string
	if w.cacheMB > 0 {
		args = append(args, "-cache-mb", strconv.FormatInt(w.cacheMB, 10))
	}
	if w.store {
		var err error
		if dir, err = os.MkdirTemp(e.tmp, "store-"); err != nil {
			return nil, 0, err
		}
		args = append(args, "-store-dir", dir)
	}
	args = append(args, extra...)
	t0 := time.Now()
	p, err := startPMSD(e.bin, args, dir)
	if err != nil {
		return nil, 0, err
	}
	c := newClient(p.base, nil)
	defer c.close()
	if err := c.prime(ctx, w.prime); err != nil {
		p.kill()
		return nil, 0, err
	}
	return p, time.Since(t0).Seconds(), nil
}

// run is one run: set-up repeated cfg.setups times (the last process
// stays up), the verify pass, warm-up, then the measured window. A traced
// run measures half a window in alternating untraced and traced parts and
// adds the layer ablations and the in-process replay.
func run(ctx context.Context, e env, cfg runCfg) (*result, error) {
	w := cfg.w
	reqs, err := w.gen(cfg.seed, streamLen)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: w.name, Seed: cfg.seed, Metrics: map[string]float64{}}

	var p *proc
	setupTimes := make([]float64, 0, cfg.setups)
	for range max(cfg.setups, 1) {
		if p != nil {
			p.kill()
		}
		var secs float64
		if p, secs, err = launch(ctx, e, w, nil); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, secs)
	}
	defer func() {
		if p != nil {
			p.kill()
		}
	}()
	c := newClient(p.base, reqs)
	defer c.close()

	n := min(w.verifyN, len(reqs))
	v, err := verify(reqs[:n], c.collect(ctx, reqs[:n]))
	if err != nil {
		return nil, err
	}
	c.next.Store(int64(n))
	res.Verified, res.Mismatches, res.FirstMismatch = n, v.mismatches, v.first
	res.ModelConflicts = v.conflicts
	res.Attempted, res.Failed = int64(n), v.failed
	runtime.GC() // the oracle's mappings are garbage now; keep their collection out of the window

	res.add(c.drive(ctx, cfg.warmup))
	before, err := p.scrape(ctx, c.http)
	if err != nil {
		return nil, err
	}
	cpu0, err := p.cpuSeconds()
	if err != nil {
		return nil, err
	}
	var base, traced window
	var rss float64
	if !cfg.traced {
		rss, err = p.rssDuring(func() { base = c.drive(ctx, cfg.window) })
		if err != nil {
			return nil, err
		}
	} else {
		// Alternating parts keep drift on a shared box out of the
		// traced-vs-untraced comparison. The traced form spends half a
		// window here, so with its ablations and replay it takes about as
		// long as an untraced run.
		res.spans = &recorder{workload: w.name}
		for q := range 4 {
			c.spans = nil
			if q%2 == 1 {
				c.spans = res.spans
			}
			win := c.drive(ctx, cfg.window/8)
			if q%2 == 1 {
				traced.merge(win)
			} else {
				base.merge(win)
			}
		}
		c.spans = nil
	}
	cpu1, err := p.cpuSeconds()
	if err != nil {
		return nil, err
	}
	after, err := p.scrape(ctx, c.http)
	if err != nil {
		return nil, err
	}
	err = p.stop()
	p = nil
	if err != nil {
		return nil, fmt.Errorf("stopping pmsd: %w", err)
	}
	res.add(base)
	res.add(traced)
	res.BoundViolations = int64(value(after, "pmsd_bound_violations_total"))
	_, res.Metrics["setup_s"], _ = quartiles(setupTimes)

	if !cfg.traced {
		res.Metrics["throughput_rps"], res.Metrics["latency_p50_us"] = base.bestSecond(int(cfg.window / time.Second))
		report.SortDurations(base.lats)
		res.LatencySamples = len(base.lats)
		res.Metrics["latency_p99_us"] = percentileUS(base.lats, 99)
		res.Metrics["rss_mb"] = rss
	} else {
		all := base
		all.merge(traced)
		if err := res.layers(ctx, e, cfg, reqs, before, after, base, traced, all, cpu1-cpu0); err != nil {
			return nil, err
		}
	}
	res.ErrorPct = 100 * ratio(float64(res.Failed), float64(res.Attempted))
	res.Correct = res.Mismatches == 0 && res.BoundViolations == 0
	return res, nil
}

func (res *result) add(w window) {
	res.Attempted += w.attempted
	res.Failed += w.failed
}

// layers fills the per-layer metrics and the time table of a traced run.
// Counter deltas come from pmsd's /metrics scraped around the window;
// layer self times come from the in-process replay of the stream.
func (res *result) layers(ctx context.Context, e env, cfg runCfg, reqs []request, before, after *dm.Scrape, base, traced, all window, cpu float64) error {
	m := map[string]float64{}
	res.Layer = m
	ctr := func(name string) float64 { return value(after, name) - value(before, name) }
	stage := func(s string) hist {
		l := dm.Label{Name: "stage", Value: s}
		return histFrom(after, "pmsd_trace_stage_us", l).minus(histFrom(before, "pmsd_trace_stage_us", l))
	}
	delta := func(name string) hist { return histFrom(after, name).minus(histFrom(before, name)) }

	// The table and transport use means: a mean splits additively across
	// layers, a p50 does not, and pmsd's histograms keep exact sums but
	// resolve values only to a factor of two.
	total := stage("total")
	perReq := func(s string) float64 { return ratio(stage(s).sum, total.count) }
	var clientSum time.Duration
	for _, d := range all.lats {
		clientSum += d
	}
	res.MeanUS = ratio(float64(clientSum.Nanoseconds())/1e3, float64(len(all.lats)))
	transport := res.MeanUS - total.mean()

	m["pmsd.cpu_us_per_req"] = ratio(cpu*1e6, float64(all.ok))
	m["http.transport_us"] = transport
	m["coalescer.wait_us"] = stage("coalesce_wait").mean()
	m["coalescer.batch_size"] = delta("pmsd_batch_size").mean()
	m["pool.admission_wait_us"] = stage("admission_wait").mean()
	m["pool.rejected_429"] = ctr("pmsd_rejected_429_total")
	hits, disk, mat := ctr("pmsd_registry_acquire_hits_total"), ctr("pmsd_registry_acquire_disk_hits_total"), ctr("pmsd_registry_acquire_materializes_total")
	m["registry.hit_ratio"] = ratio(hits, hits+disk+mat)
	m["registry.hit_us"] = stage("registry_acquire_hit").mean()
	// Materializations and disk loads mostly happen during set-up, so
	// these two read the process's lifetime counters.
	m["registry.materialize_us"] = histFrom(after, "pmsd_trace_stage_us", dm.Label{Name: "stage", Value: "registry_acquire_materialize"}).mean()
	m["registry.evictions"] = ctr("pmsd_registry_evictions_total")
	m["mapstore.load_us"] = histFrom(after, "pmsd_store_load_ns").mean() / 1e3
	m["mapstore.disk_hit_ratio"] = ratio(disk, disk+mat)
	spills, drops := value(after, "pmsd_store_spills_total"), value(after, "pmsd_store_spill_drops_total")
	m["mapstore.spill_drop_ratio"] = ratio(drops, spills+drops)
	compute := delta("pmsd_batch_compute_ns")
	m["kernel.batch_compute_us"] = compute.mean() / 1e3
	m["kernel.kernel_ratio"] = ratio(compute.sum, total.sum*1e3)
	m["domain.bound_checks"] = ctr("pmsd_bound_checks_total")
	m["domain.load_ratio"] = value(after, "pmsd_module_load_ratio")
	m["sim.cycles"] = ratio(ctr("pmsd_sim_cycles_total"), float64(all.ok))
	m["capture.flightrec_events"] = ctr("pmsd_flightrec_events_total")
	m["capture.flightrec_evicted"] = ctr("pmsd_flightrec_events_evicted_total")
	baseRPS := ratio(float64(base.ok), base.seconds)
	m["trace.overhead_pct"] = 100 * ratio(baseRPS-ratio(float64(traced.ok), traced.seconds), baseRPS)
	report.SortDurations(all.lats)
	res.LatencySamples = len(all.lats)
	res.Metrics["latency_p50_us"] = percentileUS(all.lats, 50)
	res.Metrics["latency_p99_us"] = percentileUS(all.lats, 99)

	if err := ablate(ctx, e, cfg, reqs, res); err != nil {
		return fmt.Errorf("ablation: %w", err)
	}

	dir, err := os.MkdirTemp(e.tmp, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := replay(cfg.w, reqs, res.spans, dir, cfg.window/4)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	res.BoundViolations += st.boundViolations
	self, count := res.spans.selfTimes()
	us := func(name string) float64 { return float64(self[name].Nanoseconds()) / 1e3 }
	perCall := func(name string) float64 { return ratio(us(name), float64(count[name])) }
	reqN := float64(st.requests)
	m["codec.decode_us"] = us(spanDecode) / reqN
	m["codec.encode_us"] = us(spanEncode) / reqN
	m["codec.req_bytes"] = float64(st.reqBytes) / reqN
	m["codec.resp_bytes"] = float64(st.respBytes) / reqN
	m["kernel.ns_per_node"] = ratio(us(spanKernel)*1e3, float64(st.nodes))
	m["template.cost_us"] = perCall(spanTemplate)
	m["domain.check_us"] = perCall(spanDomain)
	m["sim.heap_us"] = perCall(spanHeap)
	m["sim.range_us"] = perCall(spanRange)
	res.HandlerP50US = res.spans.p50US(spanHandler)

	// Rows are µs per request: live ones from pmsd's counters over the
	// window, replay ones from the in-process spans. unattributed closes
	// the sum to the end-to-end mean.
	res.Layers = []layerRow{
		{"http.transport", transport, "live"},
		{"codec.decode", us(spanDecode) / reqN, "replay"},
		{"coalescer.wait", perReq("coalesce_wait"), "live"},
		{"pool.admission_wait", perReq("admission_wait"), "live"},
		{"registry.acquire", us(spanAcquire) / reqN, "replay"},
		{"kernel", us(spanKernel) / reqN, "replay"},
		{"template.cost", us(spanTemplate) / reqN, "replay"},
		{"domain", us(spanDomain) / reqN, "replay"},
		{"sim", (us(spanHeap) + us(spanRange)) / reqN, "replay"},
		{"codec.encode", us(spanEncode) / reqN, "replay"},
	}
	rest := res.MeanUS
	for _, r := range res.Layers {
		rest -= r.US
	}
	res.Layers = append(res.Layers, layerRow{"unattributed", rest, "mean minus the rows above"})
	m["layer.unattributed_us"] = rest
	return nil
}

// ablate prices four layers by switching each off: fresh pmsd processes,
// one with every layer on and one per ablation flag, are up at once and
// driven in interleaved slices, so drift on a shared box hits every
// variant alike. Each ablation metric is p50(on) − p50(off).
func ablate(ctx context.Context, e env, cfg runCfg, reqs []request, res *result) error {
	variants := [][]string{nil}
	for _, ab := range ablations {
		variants = append(variants, ab.flags)
	}
	procs := make([]*proc, 0, len(variants))
	defer func() {
		for _, p := range procs {
			p.kill()
		}
	}()
	clients := make([]*client, len(variants))
	for i, flags := range variants {
		p, _, err := launch(ctx, e, cfg.w, flags)
		if err != nil {
			return fmt.Errorf("pmsd %v: %w", flags, err)
		}
		procs = append(procs, p)
		clients[i] = newClient(p.base, reqs)
		defer clients[i].close()
	}
	const rounds = 5 // the first round warms the processes up and is not kept
	slice := cfg.window / time.Duration(8*len(variants))
	lats := make([][]time.Duration, len(variants))
	for r := range rounds {
		for i, c := range clients {
			win := c.drive(ctx, slice)
			res.add(win)
			if r > 0 {
				lats[i] = append(lats[i], win.lats...)
			}
		}
	}
	p50 := make([]float64, len(variants))
	for i := range lats {
		report.SortDurations(lats[i])
		p50[i] = percentileUS(lats[i], 50)
	}
	for i, ab := range ablations {
		res.Layer[ab.metric] = p50[0] - p50[i+1]
	}
	return nil
}

func value(sc *dm.Scrape, name string) float64 {
	v, _ := sc.Value(name)
	return v
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
