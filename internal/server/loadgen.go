// Load generation for the serving path: boots a pmsd server in-process,
// drives it over real HTTP with concurrent clients whose key streams come
// from internal/workload (so serving benchmarks see the same uniform /
// zipf / sequential traffic as the engine benchmarks), and reports
// end-to-end throughput plus the server's own batching counters. Running
// the same workload with coalescing enabled and with batch size 1 gives
// the apples-to-apples comparison recorded in BENCH_pr2.json.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	dm "repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/tree"
	"repro/internal/workload"
)

// LoadGenConfig parameterizes one load run.
type LoadGenConfig struct {
	// Mapping is the spec every request queries (default: color, H=20, m=4).
	Mapping MappingSpec
	// Clients is the number of concurrent client goroutines (default 32).
	Clients int
	// Requests is the total request budget across clients (default 20000).
	Requests int
	// Dist selects the key distribution (uniform | zipf | sequential).
	Dist workload.Distribution
	// Seed seeds the per-client key streams.
	Seed int64
	// Endpoint selects the driven API: "" (or "color") posts singleton
	// /v1/color lookups; "template-cost" posts anchored ascending-path
	// template costs (the path with per-node domain accounting), which is
	// what the metrics-overhead bench prices; "mix" draws the request kind
	// per call from a Zipf-weighted mix over color, template-cost, range
	// and heap workloads — the composite scenario the replay bench records;
	// "phase-shift" posts S-heavy template costs for the first half of each
	// client's budget and P-heavy ones for the second — the mid-run mix
	// flip the adaptive mapping controller reacts to.
	Endpoint string
	// Tenants, when positive, stamps each request with an X-Tenant header
	// drawn Zipf-skewed over that many tenant names, so a few tenants are
	// hot and the tail is cold — the multi-tenant traffic shape.
	Tenants int
	// Server tunes the serving side under test. Addr is ignored; the
	// server always binds an ephemeral localhost port.
	Server Config

	// observeServer, when set, runs against the booted server after the
	// load completes and before shutdown; benches snapshot internal
	// counters (flight recorder rings) through it.
	observeServer func(*Server)
}

func (c LoadGenConfig) withDefaults() LoadGenConfig {
	if c.Mapping.Alg == "" {
		c.Mapping = MappingSpec{Alg: "color", Levels: 20, M: 4}
	}
	if c.Clients <= 0 {
		c.Clients = 32
	}
	if c.Requests <= 0 {
		c.Requests = 20000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// mixKinds orders the request kinds of the "mix" endpoint hottest-first;
// ZipfWeights over this slice makes color lookups dominate and heap
// workloads rare, roughly the shape of a serving fleet fronting the
// occasional analytical replay.
var mixKinds = []string{"color", "template-cost", "range", "heap-workload"}

// encodeLoadRequest writes the JSON body for one request of the given
// kind and returns its URL path. The i counter diversifies seeds and
// range spans deterministically.
func encodeLoadRequest(body *bytes.Buffer, cfg LoadGenConfig, kind string, n tree.Node, space, i int64) string {
	enc := json.NewEncoder(body)
	switch kind {
	case "template-cost":
		// Ascending path to the root: valid from every node, and every
		// node of the instance ticks the domain recorder.
		_ = enc.Encode(TemplateCostRequest{
			Mapping: cfg.Mapping,
			Kind:    "P",
			Size:    int64(n.Level) + 1,
			Anchor:  &NodeRef{Index: n.Index, Level: n.Level},
		})
		return "/v1/template-cost"
	case "template-S":
		// A 3-level subtree (7 nodes) — the S-heavy phase shape, lifted
		// root-ward when the drawn anchor sits too deep for the subtree
		// to fit.
		anchor := n
		if lift := n.Level - (cfg.Mapping.Levels - 3); lift > 0 {
			anchor = n.Ancestor(lift)
		}
		_ = enc.Encode(TemplateCostRequest{
			Mapping: cfg.Mapping,
			Kind:    "S",
			Size:    7,
			Anchor:  &NodeRef{Index: anchor.Index, Level: anchor.Level},
		})
		return "/v1/template-cost"
	case "template-P":
		// A short root-ward path (≤ 8 nodes) — the P-heavy phase shape.
		size := int64(n.Level) + 1
		if size > 8 {
			size = 8
		}
		_ = enc.Encode(TemplateCostRequest{
			Mapping: cfg.Mapping,
			Kind:    "P",
			Size:    size,
			Anchor:  &NodeRef{Index: n.Index, Level: n.Level},
		})
		return "/v1/template-cost"
	case "range":
		// A short scan anchored at the key's heap index (any value in
		// [0, space) is a valid in-order position).
		lo := n.HeapIndex()
		if lo >= space {
			lo = space - 1
		}
		hi := lo + 16 + i%48
		if hi >= space {
			hi = space - 1
		}
		_ = enc.Encode(RangeRequest{Mapping: cfg.Mapping, Ranges: [][2]int64{{lo, hi}}})
		return "/v1/range"
	case "heap-workload":
		// A small seeded heap burst; the seed varies per request so
		// distinct requests replay distinct (but reproducible) sequences.
		_ = enc.Encode(HeapWorkloadRequest{
			Mapping: cfg.Mapping, N: 64, Dist: "zipf", Seed: cfg.Seed + i,
		})
		return "/v1/heap/workload"
	default: // "color"
		_ = enc.Encode(ColorRequest{
			Mapping: cfg.Mapping,
			Node:    &NodeRef{Index: n.Index, Level: n.Level},
		})
		return "/v1/color"
	}
}

// LoadGenResult is one measured run.
type LoadGenResult struct {
	Mode           string  `json:"mode"` // "batched", "batch1" or a trace_* overhead mode
	Requests       int64   `json:"requests"`
	Rejected       int64   `json:"rejected_429"`
	Errors         int64   `json:"errors"`
	Seconds        float64 `json:"seconds"`
	ReqPerSec      float64 `json:"req_per_sec"`
	MeanLatencyUS  float64 `json:"mean_latency_us"`
	P50us          float64 `json:"p50_us"`
	P95us          float64 `json:"p95_us"`
	P99us          float64 `json:"p99_us"`
	BatchesFlushed int64   `json:"batches_flushed"`
	CoalescedJobs  int64   `json:"coalesced_jobs"`
	MeanBatchSize  float64 `json:"mean_batch_size"`
	// Domain carries the model-level accounting observed during the run
	// (nil when domain metrics were disabled for the run).
	Domain *dm.DomainSnapshot `json:"domain,omitempty"`
}

// RunLoadGen executes one run against a fresh in-process server and
// returns the measured result. The server is shut down before returning.
func RunLoadGen(cfg LoadGenConfig, mode string) (LoadGenResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Mapping.Validate(); err != nil {
		return LoadGenResult{}, fmt.Errorf("loadgen mapping: %w", err)
	}
	srvCfg := cfg.Server
	srvCfg.Addr = "127.0.0.1:0"
	if mode == "batch1" {
		srvCfg.MaxBatch = 1
	}
	srv := New(srvCfg)
	if err := srv.Start(); err != nil {
		return LoadGenResult{}, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	base := "http://" + srv.Addr()
	transport := &http.Transport{
		MaxIdleConns:        cfg.Clients * 2,
		MaxIdleConnsPerHost: cfg.Clients * 2,
	}
	client := &http.Client{Transport: transport, Timeout: 30 * time.Second}
	defer transport.CloseIdleConnections()

	space := tree.New(cfg.Mapping.Levels).Nodes()
	perClient := cfg.Requests / cfg.Clients
	if perClient < 1 {
		perClient = 1
	}

	var ok, rejected, errs, latencyUS atomic.Int64
	lats := make([][]time.Duration, cfg.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			keys, err := workload.NewKeyStream(cfg.Dist, space, cfg.Seed+int64(id))
			if err != nil {
				errs.Add(int64(perClient))
				return
			}
			// The mix picker draws the request kind Zipf-skewed (color
			// hottest, heap workloads rare); the tenant picker draws the
			// X-Tenant identity Zipf-skewed over the tenant population.
			// Both are seeded per client, so one (cfg, seed) names the
			// entire traffic shape deterministically.
			var kindPick, tenantPick *workload.WeightedPicker
			if cfg.Endpoint == "mix" {
				kindPick, err = workload.NewWeightedPicker(workload.ZipfWeights(len(mixKinds), 1.1), cfg.Seed+int64(id)*7919)
				if err != nil {
					errs.Add(int64(perClient))
					return
				}
			}
			var tenants []string
			if cfg.Tenants > 0 {
				tenants = workload.TenantNames(cfg.Tenants)
				tenantPick, err = workload.NewWeightedPicker(workload.ZipfWeights(cfg.Tenants, 1.2), cfg.Seed+int64(id)*104729+1)
				if err != nil {
					errs.Add(int64(perClient))
					return
				}
			}
			mine := make([]time.Duration, 0, perClient)
			var body bytes.Buffer
			for i := 0; i < perClient; i++ {
				n := tree.FromHeapIndex(keys.Next())
				kind := cfg.Endpoint
				if kindPick != nil {
					kind = mixKinds[kindPick.Next()]
				}
				if cfg.Endpoint == "phase-shift" {
					kind = "template-S"
					if i >= perClient/2 {
						kind = "template-P"
					}
				}
				body.Reset()
				path := encodeLoadRequest(&body, cfg, kind, n, space, int64(id)*int64(perClient)+int64(i))
				req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body.Bytes()))
				if err != nil {
					errs.Add(1)
					continue
				}
				req.Header.Set("Content-Type", "application/json")
				if tenantPick != nil {
					req.Header.Set(TenantHeader, tenants[tenantPick.Next()])
				}
				t0 := time.Now()
				resp, err := client.Do(req)
				if err != nil {
					errs.Add(1)
					continue
				}
				_ = resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusOK:
					ok.Add(1)
					d := time.Since(t0)
					latencyUS.Add(d.Microseconds())
					mine = append(mine, d)
				case resp.StatusCode == http.StatusTooManyRequests:
					rejected.Add(1)
				default:
					errs.Add(1)
				}
			}
			lats[id] = mine
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	report.SortDurations(all)

	snap := srv.Metrics().Snapshot()
	res := LoadGenResult{
		Mode:           mode,
		Requests:       ok.Load(),
		Rejected:       rejected.Load(),
		Errors:         errs.Load(),
		Seconds:        elapsed.Seconds(),
		BatchesFlushed: snap.BatchesFlushed,
		CoalescedJobs:  snap.CoalescedJobs,
	}
	if res.Requests > 0 {
		res.ReqPerSec = float64(res.Requests) / elapsed.Seconds()
		res.MeanLatencyUS = float64(latencyUS.Load()) / float64(res.Requests)
		res.P50us = report.PercentileUS(all, 50)
		res.P95us = report.PercentileUS(all, 95)
		res.P99us = report.PercentileUS(all, 99)
	}
	if snap.BatchesFlushed > 0 {
		res.MeanBatchSize = float64(snap.BatchSize.Sum) / float64(snap.BatchesFlushed)
	}
	res.Domain = snap.Domain
	if cfg.observeServer != nil {
		cfg.observeServer(srv)
	}
	return res, nil
}

// LoadGenComparison pairs the batched and batch-1 runs of one workload.
type LoadGenComparison struct {
	Batched LoadGenResult `json:"ServeColorBatched"`
	Batch1  LoadGenResult `json:"ServeColorBatch1"`
	// Speedup is batched over batch-1 request throughput.
	Speedup float64 `json:"BatchedSpeedup"`
}

// RunLoadGenComparison runs the workload twice — coalescing on, then
// batch size 1 — and reports both plus the throughput ratio.
func RunLoadGenComparison(cfg LoadGenConfig) (LoadGenComparison, error) {
	batched, err := RunLoadGen(cfg, "batched")
	if err != nil {
		return LoadGenComparison{}, err
	}
	single, err := RunLoadGen(cfg, "batch1")
	if err != nil {
		return LoadGenComparison{}, err
	}
	cmp := LoadGenComparison{Batched: batched, Batch1: single}
	if single.ReqPerSec > 0 {
		cmp.Speedup = batched.ReqPerSec / single.ReqPerSec
	}
	return cmp, nil
}

// TraceOverheadComparison measures what request tracing costs on the
// serving path: the identical workload with tracing off, sampled at
// 0.01, and at full sampling. The overhead percentages compare p50
// latency against the tracing-off run (the tentpole claim: <3% at full
// sampling, ~0% at 0.01).
type TraceOverheadComparison struct {
	Off     LoadGenResult `json:"TraceOff"`
	Sampled LoadGenResult `json:"TraceSampled1pct"`
	Full    LoadGenResult `json:"TraceFull"`
	// P50 overhead of each tracing mode vs. the off run, in percent.
	SampledP50OverheadPct float64 `json:"SampledP50OverheadPct"`
	FullP50OverheadPct    float64 `json:"FullP50OverheadPct"`
}

// RunTraceOverheadComparison runs the workload three times — tracing
// off, sample rate 0.01, sample rate 1.0 — and reports the p50 cost.
func RunTraceOverheadComparison(cfg LoadGenConfig) (TraceOverheadComparison, error) {
	run := func(mode string, rate float64) (LoadGenResult, error) {
		c := cfg
		c.Server.TraceSampleRate = rate
		res, err := RunLoadGen(c, "batched")
		res.Mode = mode
		return res, err
	}
	off, err := run("trace_off", -1)
	if err != nil {
		return TraceOverheadComparison{}, err
	}
	sampled, err := run("trace_sampled_0.01", 0.01)
	if err != nil {
		return TraceOverheadComparison{}, err
	}
	full, err := run("trace_full", 1)
	if err != nil {
		return TraceOverheadComparison{}, err
	}
	cmp := TraceOverheadComparison{Off: off, Sampled: sampled, Full: full}
	if off.P50us > 0 {
		cmp.SampledP50OverheadPct = (sampled.P50us - off.P50us) / off.P50us * 100
		cmp.FullP50OverheadPct = (full.P50us - off.P50us) / off.P50us * 100
	}
	return cmp, nil
}

// MetricsOverheadComparison measures what the domain-accounting layer
// costs on the serving path: the identical template-cost workload with
// accounting disabled and enabled. The accounted run also carries the
// domain snapshot, so the BENCH_pr5.json record shows the bound monitor
// staying at zero violations alongside the overhead percentage (the
// tentpole claim: <3% at p50).
type MetricsOverheadComparison struct {
	Off LoadGenResult `json:"MetricsOff"`
	On  LoadGenResult `json:"MetricsOn"`
	// P50 overhead of the accounted run vs. the unaccounted one, percent.
	OnP50OverheadPct float64 `json:"MetricsP50OverheadPct"`
	// Invariants of the accounted run, hoisted for one-line inspection.
	BoundChecks     int64   `json:"BoundChecks"`
	BoundViolations int64   `json:"BoundViolations"`
	LoadRatio       float64 `json:"LoadRatio"`
	AccessesTotal   int64   `json:"AccessesTotal"`
}

// RunMetricsOverheadComparison runs the template-cost workload twice —
// domain metrics off, then on — and reports the p50 cost plus the
// accounted run's domain invariants.
func RunMetricsOverheadComparison(cfg LoadGenConfig) (MetricsOverheadComparison, error) {
	cfg.Endpoint = "template-cost"
	run := func(mode string, disabled bool) (LoadGenResult, error) {
		c := cfg
		c.Server.DisableDomainMetrics = disabled
		res, err := RunLoadGen(c, "batched")
		res.Mode = mode
		return res, err
	}
	off, err := run("metrics_off", true)
	if err != nil {
		return MetricsOverheadComparison{}, err
	}
	on, err := run("metrics_on", false)
	if err != nil {
		return MetricsOverheadComparison{}, err
	}
	cmp := MetricsOverheadComparison{Off: off, On: on}
	if off.P50us > 0 {
		cmp.OnP50OverheadPct = (on.P50us - off.P50us) / off.P50us * 100
	}
	if d := on.Domain; d != nil {
		cmp.BoundChecks = d.BoundChecks
		cmp.BoundViolations = d.BoundViolations
		cmp.LoadRatio = d.LoadRatio
		cmp.AccessesTotal = d.TotalAccesses
	}
	return cmp, nil
}
