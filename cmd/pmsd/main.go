// Command pmsd serves the paper's tree→module mappings over HTTP/JSON:
// node→module retrieval (/v1/color, with server-side batching of
// concurrent singleton lookups), template conflict costs
// (/v1/template-cost) and bounded trace replay through the parallel
// memory system simulator (/v1/simulate), with Prometheus metrics
// (/metrics) and /debug/pprof profiling built in.
//
// Serve mode:
//
//	pmsd -addr :8080 -workers 8 -max-inflight 512 -max-batch 64
//
// SIGINT/SIGTERM trigger a graceful drain: accepted requests complete,
// new ones are refused.
//
// Chaos mode wraps the serving path in the deterministic fault
// injector (internal/faultinject): latency spikes, 5xx/429 bursts,
// connection resets, slow-body drips and partial batch failures, all
// keyed by -chaos-seed so a run can be replayed exactly:
//
//	pmsd -chaos -chaos-seed 42 -chaos-latency 0.1 -chaos-reset 0.02
//
// Request tracing samples per-request stage spans (admission wait,
// coalesce wait, registry acquire, batch compute, response write) into
// GET /debug/requests; -trace-sample sets the sampling rate (0 turns it
// off) and -trace-slowest sizes the slowest-trace buffer.
//
// Domain metrics (per-module access accounting, template-family conflict
// histograms, the theorem-bound monitor) are on by default and rendered
// by GET /metrics in Prometheus text format with the serving counters;
// -no-domain-metrics turns the accounting layer off.
//
// With -store-dir the mapping registry gains a disk tier: evicted
// table-backed mappings spill into a crash-safe mmap store instead of
// being discarded, registry misses consult the store before paying a
// materialization, and a restart with the same directory warm-starts by
// pre-admitting the -store-warm hottest specs from the manifest:
//
//	pmsd -addr :8080 -store-dir /var/lib/pmsd -store-budget 1024 -store-warm 64
//
// Trace record/replay: -record FILE tapes every /v1 POST (path, tenant,
// body) in arrival order — read once, by the same capture point that
// feeds the flight recorder, and with or without -no-flightrec — and
// writes the tape as a checksummed PMSTRC1 trace file, headed by -seed,
// on shutdown; -replay FILE replays a trace sequentially against a fresh
// in-process deterministic server (coalescing and trace sampling off)
// and prints the response digest — the same trace always yields the
// same digest:
//
//	pmsd -addr :8080 -record /tmp/run.pmstrc
//	pmsd -replay /tmp/run.pmstrc
//
// The adaptive mapping controller (-controller) closes the loop on the
// paper's COLOR vs LABEL-TREE vs arithmetic trade-off per registry
// entry: it classifies each entry's live template mix, shadow-scores
// candidate mappings by replaying sampled traffic through the batch
// kernels, and migrates the entry when a candidate beats the serving
// mapping by a hysteresis margin — persisting the decision through the
// mapstore manifest so -store-warm restarts re-serve the migrated
// algorithm:
//
//	pmsd -addr :8080 -controller -controller-interval 2s -shadow-sample 0.25
//
// Forensics (internal/flightrec): an always-on flight recorder keeps
// bounded rings of per-request captures (the event plus the request
// body, last 2048 requests), periodic metric frames and controller
// decisions, an SLO watchdog evaluates rolling windows (p99 latency,
// error rate, per-tenant rejection share, migration churn, and the
// must-be-zero theorem-bound rule), and on breach the rings freeze into
// a checksummed PMSINC1 incident snapshot whose event journal and
// replayable PMSTRC1 request window come from the same captures.
// GET /debug/snapshot serves a manual snapshot; pmsdoctor analyzes and
// replays incident files:
//
//	pmsd -addr :8080 -flightrec-dir /var/lib/pmsd/incidents -slo-error-rate 5 -slo-p99 50ms
//
// Logs are structured (log/slog); -log-format picks text or json.
//
// pmsd's performance is measured by pmsbench (bench/, run with
// `bash bench/run.sh`), which drives a real pmsd process over HTTP.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/flightrec"
	"repro/internal/mapstore"
	"repro/internal/replay"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	workers := flag.Int("workers", 0, "worker pool size (0 = default 4)")
	maxInflight := flag.Int("max-inflight", 256, "admitted-request limit before 429s")
	flush := flag.Duration("flush", 500*time.Microsecond, "alias kept for old scripts: 0 sets -max-batch 1 (no batching); any other value does nothing")
	maxBatch := flag.Int("max-batch", 64, "max coalesced batch size (1 disables batching)")
	cacheMB := flag.Int64("cache-mb", 256, "mapping registry byte budget, in MiB")
	workerDelay := flag.Duration("worker-delay", 0, "injected per-task latency (load/backpressure testing only)")
	traceSample := flag.Float64("trace-sample", 1, "request-trace sampling rate in [0,1] (0 disables tracing)")
	traceSlowest := flag.Int("trace-slowest", 32, "slowest-trace buffer size for /debug/requests")
	seed := flag.Int64("seed", 1, "seed stamped into the -record trace header")

	controller := flag.Bool("controller", false, "enable the adaptive mapping controller (classify live template mix, shadow-score candidates, migrate registry entries)")
	controllerInterval := flag.Duration("controller-interval", 2*time.Second, "controller: policy tick interval")
	shadowSample := flag.Float64("shadow-sample", 0.25, "controller: fraction of template traffic sampled for shadow scoring (0 disables sampling)")

	storeDir := flag.String("store-dir", "", "disk-tier store directory (empty disables the tier)")
	storeBudget := flag.Int64("store-budget", 1024, "disk-tier byte budget, in MiB")
	storeTTL := flag.Duration("store-ttl", 0, "disk-tier entry TTL (0 keeps entries until the budget evicts them)")
	storeWarm := flag.Int("store-warm", 64, "warm-start: pre-admit up to this many of the store's hottest specs")

	noDomainMetrics := flag.Bool("no-domain-metrics", false, "disable the domain-accounting layer (module loads, conflict histograms, bound monitor)")
	chaos := flag.Bool("chaos", false, "serve with fault injection enabled")
	chaosSeed := flag.Int64("chaos-seed", 1, "chaos: fault schedule seed (same seed = same schedule)")
	chaosLatency := flag.Float64("chaos-latency", 0.1, "chaos: per-request latency-spike probability")
	chaosLatencyMin := flag.Duration("chaos-latency-min", 10*time.Millisecond, "chaos: min latency spike")
	chaosLatencyMax := flag.Duration("chaos-latency-max", 50*time.Millisecond, "chaos: max latency spike")
	chaosError := flag.Float64("chaos-error", 0, "chaos: per-window 5xx-burst probability")
	chaosRate := flag.Float64("chaos-rate", 0, "chaos: per-window 429-burst probability")
	chaosBurst := flag.Int("chaos-burst", 8, "chaos: burst window length in requests")
	chaosReset := flag.Float64("chaos-reset", 0, "chaos: per-request connection-reset probability")
	chaosDrip := flag.Float64("chaos-drip", 0, "chaos: per-request slow-body-drip probability")
	chaosPartial := flag.Float64("chaos-partial", 0, "chaos: per-request partial-body probability")

	logFormat := flag.String("log-format", "text", "structured log format: text|json")
	noFlightRec := flag.Bool("no-flightrec", false, "disable the always-on flight recorder and SLO watchdog")
	flightDir := flag.String("flightrec-dir", "", "directory for watchdog-triggered incident snapshots (empty: breaches are logged and counted but never written)")
	sloWindow := flag.Duration("slo-window", 0, "SLO: rolling evaluation window (0 = default 10s)")
	sloInterval := flag.Duration("slo-interval", 0, "SLO: watchdog tick cadence (0 = default 1s)")
	sloP99 := flag.Duration("slo-p99", 0, "SLO: p99 total-latency target (0 disables the rule)")
	sloErrorRate := flag.Float64("slo-error-rate", 0, "SLO: max 5xx share of a window, percent (0 disables the rule)")
	sloTenantReject := flag.Float64("slo-tenant-reject", 0, "SLO: max single-tenant 429 share of a window, percent (0 disables the rule)")
	sloMaxMigrations := flag.Int("slo-max-migrations", 0, "SLO: max controller migrations per window (0 disables the rule)")
	sloMinRequests := flag.Int("slo-min-requests", 0, "SLO: min events in a window before rate/percentile rules may breach (0 = default 20)")
	sloSnapshotEvery := flag.Duration("slo-snapshot-every", 0, "SLO: min interval between watchdog incident snapshots (0 = default 30s)")

	recordFile := flag.String("record", "", "serve mode: record mutating requests into this PMSTRC1 trace file on shutdown")
	replayFile := flag.String("replay", "", "replay a PMSTRC1 trace against a fresh deterministic in-process server, print the digest, exit")
	tenantMaxInflight := flag.Int("tenant-max-inflight", 0, "per-tenant admitted-request cap (0 = the global limit, i.e. fairness off)")
	maxTenants := flag.Int("max-tenants", 64, "bounded per-tenant accounting table size (overflow lands in the 'other' bucket)")
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fail("-log-format must be text or json, got %q", *logFormat)
	}
	logger := slog.New(handler)
	slog.SetDefault(logger)
	fatal := func(err error) {
		logger.Error(err.Error())
		os.Exit(1)
	}
	if *workers < 0 {
		fail("-workers must be non-negative, got %d", *workers)
	}
	if *maxInflight < 1 {
		fail("-max-inflight must be at least 1, got %d", *maxInflight)
	}
	if *maxBatch < 1 {
		fail("-max-batch must be at least 1, got %d", *maxBatch)
	}
	if *cacheMB < 1 {
		fail("-cache-mb must be at least 1, got %d", *cacheMB)
	}
	if *flush < 0 || *workerDelay < 0 {
		fail("-flush and -worker-delay must be non-negative")
	}
	if *storeBudget < 1 {
		fail("-store-budget must be at least 1 MiB, got %d", *storeBudget)
	}
	if *storeTTL < 0 {
		fail("-store-ttl must be non-negative")
	}
	if *storeWarm < 0 {
		fail("-store-warm must be non-negative, got %d", *storeWarm)
	}
	if *traceSample < 0 || *traceSample > 1 {
		fail("-trace-sample must be a probability in [0,1], got %g", *traceSample)
	}
	if *traceSlowest < 1 {
		fail("-trace-slowest must be at least 1, got %d", *traceSlowest)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"-chaos-latency", *chaosLatency}, {"-chaos-error", *chaosError},
		{"-chaos-rate", *chaosRate}, {"-chaos-reset", *chaosReset},
		{"-chaos-drip", *chaosDrip}, {"-chaos-partial", *chaosPartial},
	} {
		if p.v < 0 || p.v > 1 {
			fail("%s must be a probability in [0,1], got %g", p.name, p.v)
		}
	}
	if *chaosBurst < 1 {
		fail("-chaos-burst must be at least 1, got %d", *chaosBurst)
	}
	chaosCfg := faultinject.Config{
		Seed:          *chaosSeed,
		LatencyProb:   *chaosLatency,
		LatencyMin:    *chaosLatencyMin,
		LatencyMax:    *chaosLatencyMax,
		ErrorProb:     *chaosError,
		RateLimitProb: *chaosRate,
		BurstLen:      *chaosBurst,
		ResetProb:     *chaosReset,
		DripProb:      *chaosDrip,
		PartialProb:   *chaosPartial,
	}

	cfg := server.Config{
		Addr:             *addr,
		Workers:          *workers,
		MaxInflight:      *maxInflight,
		MaxBatch:         *maxBatch,
		CacheBudgetBytes: *cacheMB << 20,
		WorkerDelay:      *workerDelay,
		TraceSampleRate:  *traceSample,
		TraceSlowest:     *traceSlowest,

		TenantMaxInflight: *tenantMaxInflight,
		MaxTenants:        *maxTenants,

		DisableDomainMetrics: *noDomainMetrics,

		Controller:         *controller,
		ControllerInterval: *controllerInterval,
		ShadowSampleRate:   *shadowSample,

		DisableFlightRec: *noFlightRec,
		FlightRecDir:     *flightDir,
		SLO: flightrec.SLOConfig{
			Window:               *sloWindow,
			Interval:             *sloInterval,
			MinRequests:          *sloMinRequests,
			P99TargetUS:          sloP99.Microseconds(),
			ErrorRatePct:         *sloErrorRate,
			TenantRejectSharePct: *sloTenantReject,
			MaxMigrations:        *sloMaxMigrations,
			SnapshotMinInterval:  *sloSnapshotEvery,
		},
		Logger: logger,
	}
	if *sloWindow < 0 || *sloInterval < 0 || *sloP99 < 0 || *sloSnapshotEvery < 0 {
		fail("-slo-window, -slo-interval, -slo-p99 and -slo-snapshot-every must be non-negative")
	}
	if *sloErrorRate < 0 || *sloErrorRate > 100 || *sloTenantReject < 0 || *sloTenantReject > 100 {
		fail("-slo-error-rate and -slo-tenant-reject are percentages in [0,100]")
	}
	if *sloMaxMigrations < 0 || *sloMinRequests < 0 {
		fail("-slo-max-migrations and -slo-min-requests must be non-negative")
	}
	if *controllerInterval <= 0 {
		fail("-controller-interval must be positive, got %v", *controllerInterval)
	}
	if *shadowSample < 0 || *shadowSample > 1 {
		fail("-shadow-sample must be a probability in [0,1], got %g", *shadowSample)
	}
	if *shadowSample == 0 {
		cfg.ShadowSampleRate = -1 // Config treats 0 as "default"; negative disables
	}
	if *controller && *noDomainMetrics {
		fail("-controller needs the domain accounting layer; drop -no-domain-metrics")
	}
	if *flush == 0 {
		cfg.MaxBatch = 1
	}
	if *traceSample == 0 {
		cfg.TraceSampleRate = -1 // same idiom: 0 means "default" to Config
	}

	if *tenantMaxInflight < 0 {
		fail("-tenant-max-inflight must be non-negative, got %d", *tenantMaxInflight)
	}
	if *maxTenants < 1 {
		fail("-max-tenants must be at least 1, got %d", *maxTenants)
	}

	if *replayFile != "" {
		tr0 := time.Now()
		res, checks, violations, err := server.ReplayFile(cfg, *replayFile)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("replayed %d requests in %.3fs\n", res.Requests, time.Since(tr0).Seconds())
		for status, n := range res.StatusCounts {
			fmt.Printf("  status %d: %d\n", status, n)
		}
		fmt.Printf("digest: %s\n", res.Digest)
		fmt.Printf("bound checks %d, violations %d\n", checks, violations)
		if violations != 0 {
			os.Exit(1)
		}
		return
	}

	if *chaos {
		inj := faultinject.New(chaosCfg)
		cfg.Middleware = inj.Middleware
		// Stamp the fault schedule into incident snapshots so pmsdoctor
		// -replay can rebuild the exact same chaos during reproduction.
		if ccJSON, err := json.Marshal(chaosCfg); err == nil {
			cfg.FlightRecMeta = map[string]string{server.ChaosConfigMetaKey: string(ccJSON)}
		}
		logger.Info("pmsd CHAOS MODE: "+inj.String(), "seed", *chaosSeed)
	}
	if *recordFile != "" {
		// The capture point sits outside chaos and admission, so the tape
		// holds every offered request, including ones later refused.
		cfg.Tape = replay.NewTape(*seed)
		logger.Info("pmsd recording mutating requests to "+*recordFile, "file", *recordFile)
	}
	if *storeDir != "" {
		st, err := mapstore.Open(mapstore.Options{
			Dir:         *storeDir,
			BudgetBytes: *storeBudget << 20,
			TTL:         *storeTTL,
		})
		if err != nil {
			fatal(fmt.Errorf("store: %w", err))
		}
		cfg.Store = st
		logger.Info("pmsd store at "+*storeDir, "dir", *storeDir, "budget_mib", *storeBudget)
	}
	srv := server.New(cfg)
	if cfg.Store != nil && *storeWarm > 0 {
		if admitted := srv.WarmStart(*storeWarm); admitted > 0 {
			logger.Info(fmt.Sprintf("pmsd warm start: %d mappings pre-admitted from the store", admitted), "admitted", admitted)
		}
	}
	if err := srv.Start(); err != nil {
		fatal(err)
	}
	// The message keeps the "pmsd listening on ADDR" shape the smoke
	// scripts grep; the structured attrs carry the same facts for json.
	logger.Info(fmt.Sprintf("pmsd listening on %s (%s)", srv.Addr(), cfg),
		"addr", srv.Addr(), "workers", cfg.Workers, "max_inflight", cfg.MaxInflight,
		"flightrec", !cfg.DisableFlightRec, "flightrec_dir", cfg.FlightRecDir)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	logger.Info("pmsd draining")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fatal(fmt.Errorf("shutdown: %w", err))
	}
	if cfg.Tape != nil {
		trace, dropped := cfg.Tape.Trace()
		if err := trace.Save(*recordFile); err != nil {
			fatal(fmt.Errorf("saving trace: %w", err))
		}
		logger.Info("pmsd trace saved to "+*recordFile, "recorded", len(trace.Records), "dropped", dropped)
	}
	logger.Info("pmsd stopped")
}
