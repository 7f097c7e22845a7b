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
	"repro/internal/mapstore"
	"repro/internal/replay"
	"repro/internal/server"
)

// settings is everything pmsd's flags set.
type settings struct {
	cfg            server.Config
	chaos          bool
	chaosCfg       faultinject.Config
	store          mapstore.Options
	storeWarm      int
	seed           int64
	logFormat      string
	record, replay string
}

// parse binds each flag to the field it sets, checks the values in one
// ordered list and converts the few that Config takes in other units.
// Like a malformed flag, a failed check prints its message and the usage
// and exits 2.
func parse(args []string) settings {
	var s settings
	c, ch, slo := &s.cfg, &s.chaosCfg, &s.cfg.SLO
	var cacheMB, storeBudget int64
	var flush, sloP99 time.Duration
	fs := flag.NewFlagSet("pmsd", flag.ExitOnError)
	fs.StringVar(&c.Addr, "addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	fs.IntVar(&c.Workers, "workers", 0, "worker pool size (0 = default 4)")
	fs.IntVar(&c.MaxInflight, "max-inflight", 256, "admitted-request limit before 429s")
	fs.DurationVar(&flush, "flush", 500*time.Microsecond, "alias kept for old scripts: 0 sets -max-batch 1 (no batching); any other value does nothing")
	fs.IntVar(&c.MaxBatch, "max-batch", 64, "max coalesced batch size (1 disables batching)")
	fs.Int64Var(&cacheMB, "cache-mb", 256, "mapping registry byte budget, in MiB")
	fs.DurationVar(&c.WorkerDelay, "worker-delay", 0, "injected per-task latency (load/backpressure testing only)")
	fs.Float64Var(&c.TraceSampleRate, "trace-sample", 1, "request-trace sampling rate in [0,1] (0 disables tracing)")
	fs.IntVar(&c.TraceSlowest, "trace-slowest", 32, "slowest-trace buffer size for /debug/requests")
	fs.Int64Var(&s.seed, "seed", 1, "seed stamped into the -record trace header")

	fs.BoolVar(&c.Controller, "controller", false, "enable the adaptive mapping controller (classify live template mix, shadow-score candidates, migrate registry entries)")
	fs.DurationVar(&c.ControllerInterval, "controller-interval", 2*time.Second, "controller: policy tick interval")
	fs.Float64Var(&c.ShadowSampleRate, "shadow-sample", 0.25, "controller: fraction of template traffic sampled for shadow scoring (0 disables sampling)")

	fs.StringVar(&s.store.Dir, "store-dir", "", "disk-tier store directory (empty disables the tier)")
	fs.Int64Var(&storeBudget, "store-budget", 1024, "disk-tier byte budget, in MiB")
	fs.DurationVar(&s.store.TTL, "store-ttl", 0, "disk-tier entry TTL (0 keeps entries until the budget evicts them)")
	fs.IntVar(&s.storeWarm, "store-warm", 64, "warm-start: pre-admit up to this many of the store's hottest specs")

	fs.BoolVar(&c.DisableDomainMetrics, "no-domain-metrics", false, "disable the domain-accounting layer (module loads, conflict histograms, bound monitor)")
	fs.BoolVar(&s.chaos, "chaos", false, "serve with fault injection enabled")
	fs.Int64Var(&ch.Seed, "chaos-seed", 1, "chaos: fault schedule seed (same seed = same schedule)")
	fs.Float64Var(&ch.LatencyProb, "chaos-latency", 0.1, "chaos: per-request latency-spike probability")
	fs.DurationVar(&ch.LatencyMin, "chaos-latency-min", 10*time.Millisecond, "chaos: min latency spike")
	fs.DurationVar(&ch.LatencyMax, "chaos-latency-max", 50*time.Millisecond, "chaos: max latency spike")
	fs.Float64Var(&ch.ErrorProb, "chaos-error", 0, "chaos: per-window 5xx-burst probability")
	fs.Float64Var(&ch.RateLimitProb, "chaos-rate", 0, "chaos: per-window 429-burst probability")
	fs.IntVar(&ch.BurstLen, "chaos-burst", 8, "chaos: burst window length in requests")
	fs.Float64Var(&ch.ResetProb, "chaos-reset", 0, "chaos: per-request connection-reset probability")
	fs.Float64Var(&ch.DripProb, "chaos-drip", 0, "chaos: per-request slow-body-drip probability")
	fs.Float64Var(&ch.PartialProb, "chaos-partial", 0, "chaos: per-request partial-body probability")

	fs.StringVar(&s.logFormat, "log-format", "text", "structured log format: text|json")
	fs.BoolVar(&c.DisableFlightRec, "no-flightrec", false, "disable the always-on flight recorder and SLO watchdog")
	fs.StringVar(&c.FlightRecDir, "flightrec-dir", "", "directory for watchdog-triggered incident snapshots (empty: breaches are logged and counted but never written)")
	fs.DurationVar(&slo.Window, "slo-window", 0, "SLO: rolling evaluation window (0 = default 10s)")
	fs.DurationVar(&slo.Interval, "slo-interval", 0, "SLO: watchdog tick cadence (0 = default 1s)")
	fs.DurationVar(&sloP99, "slo-p99", 0, "SLO: p99 total-latency target (0 disables the rule)")
	fs.Float64Var(&slo.ErrorRatePct, "slo-error-rate", 0, "SLO: max 5xx share of a window, percent (0 disables the rule)")
	fs.Float64Var(&slo.TenantRejectSharePct, "slo-tenant-reject", 0, "SLO: max single-tenant 429 share of a window, percent (0 disables the rule)")
	fs.IntVar(&slo.MaxMigrations, "slo-max-migrations", 0, "SLO: max controller migrations per window (0 disables the rule)")
	fs.IntVar(&slo.MinRequests, "slo-min-requests", 0, "SLO: min events in a window before rate/percentile rules may breach (0 = default 20)")
	fs.DurationVar(&slo.SnapshotMinInterval, "slo-snapshot-every", 0, "SLO: min interval between watchdog incident snapshots (0 = default 30s)")

	fs.StringVar(&s.record, "record", "", "serve mode: record mutating requests into this PMSTRC1 trace file on shutdown")
	fs.StringVar(&s.replay, "replay", "", "replay a PMSTRC1 trace against a fresh deterministic in-process server, print the digest, exit")
	fs.IntVar(&c.TenantMaxInflight, "tenant-max-inflight", 0, "per-tenant admitted-request cap (0 = the global limit, i.e. fairness off)")
	fs.IntVar(&c.MaxTenants, "max-tenants", 64, "bounded per-tenant accounting table size (overflow lands in the 'other' bucket)")
	_ = fs.Parse(args) // ExitOnError: a malformed flag exits inside Parse

	type check struct {
		bad bool
		msg string
	}
	prob := func(name string, p float64) check {
		return check{p < 0 || p > 1, fmt.Sprintf("%s must be a probability in [0,1], got %g", name, p)}
	}
	for _, k := range []check{
		{fs.NArg() > 0, fmt.Sprintf("unexpected arguments: %v", fs.Args())},
		{s.logFormat != "text" && s.logFormat != "json", fmt.Sprintf("-log-format must be text or json, got %q", s.logFormat)},
		{c.Workers < 0, fmt.Sprintf("-workers must be non-negative, got %d", c.Workers)},
		{c.MaxInflight < 1, fmt.Sprintf("-max-inflight must be at least 1, got %d", c.MaxInflight)},
		{c.MaxBatch < 1, fmt.Sprintf("-max-batch must be at least 1, got %d", c.MaxBatch)},
		{cacheMB < 1, fmt.Sprintf("-cache-mb must be at least 1, got %d", cacheMB)},
		{flush < 0 || c.WorkerDelay < 0, "-flush and -worker-delay must be non-negative"},
		{storeBudget < 1, fmt.Sprintf("-store-budget must be at least 1 MiB, got %d", storeBudget)},
		{s.store.TTL < 0, "-store-ttl must be non-negative"},
		{s.storeWarm < 0, fmt.Sprintf("-store-warm must be non-negative, got %d", s.storeWarm)},
		prob("-trace-sample", c.TraceSampleRate),
		{c.TraceSlowest < 1, fmt.Sprintf("-trace-slowest must be at least 1, got %d", c.TraceSlowest)},
		prob("-chaos-latency", ch.LatencyProb),
		prob("-chaos-error", ch.ErrorProb),
		prob("-chaos-rate", ch.RateLimitProb),
		prob("-chaos-reset", ch.ResetProb),
		prob("-chaos-drip", ch.DripProb),
		prob("-chaos-partial", ch.PartialProb),
		{ch.BurstLen < 1, fmt.Sprintf("-chaos-burst must be at least 1, got %d", ch.BurstLen)},
		// faultinject would silently replace a non-positive min and a max
		// below the min with its defaults.
		{ch.LatencyMin <= 0, fmt.Sprintf("-chaos-latency-min must be positive, got %v", ch.LatencyMin)},
		{ch.LatencyMax < ch.LatencyMin, fmt.Sprintf("-chaos-latency-max must be at least -chaos-latency-min (%v), got %v", ch.LatencyMin, ch.LatencyMax)},
		{slo.Window < 0 || slo.Interval < 0 || sloP99 < 0 || slo.SnapshotMinInterval < 0, "-slo-window, -slo-interval, -slo-p99 and -slo-snapshot-every must be non-negative"},
		// The target is kept in whole µs, where a shorter one would read 0
		// and turn the rule off.
		{sloP99 > 0 && sloP99 < time.Microsecond, fmt.Sprintf("-slo-p99 must be 0 or at least 1µs, got %v", sloP99)},
		{slo.ErrorRatePct < 0 || slo.ErrorRatePct > 100 || slo.TenantRejectSharePct < 0 || slo.TenantRejectSharePct > 100, "-slo-error-rate and -slo-tenant-reject are percentages in [0,100]"},
		{slo.MaxMigrations < 0 || slo.MinRequests < 0, "-slo-max-migrations and -slo-min-requests must be non-negative"},
		{c.ControllerInterval <= 0, fmt.Sprintf("-controller-interval must be positive, got %v", c.ControllerInterval)},
		prob("-shadow-sample", c.ShadowSampleRate),
		{c.Controller && c.DisableDomainMetrics, "-controller needs the domain accounting layer; drop -no-domain-metrics"},
		{c.TenantMaxInflight < 0, fmt.Sprintf("-tenant-max-inflight must be non-negative, got %d", c.TenantMaxInflight)},
		{c.MaxTenants < 1, fmt.Sprintf("-max-tenants must be at least 1, got %d", c.MaxTenants)},
	} {
		if k.bad {
			fmt.Fprintln(fs.Output(), k.msg)
			fs.Usage()
			os.Exit(2)
		}
	}

	c.CacheBudgetBytes = cacheMB << 20
	s.store.BudgetBytes = storeBudget << 20
	slo.P99TargetUS = sloP99.Microseconds()
	if flush == 0 {
		c.MaxBatch = 1
	}
	// Config reads a zero rate as "default"; a negative one disables.
	if c.TraceSampleRate == 0 {
		c.TraceSampleRate = -1
	}
	if c.ShadowSampleRate == 0 {
		c.ShadowSampleRate = -1
	}
	return s
}

func main() {
	s := parse(os.Args[1:])
	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if s.logFormat == "json" {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)
	slog.SetDefault(logger)
	fatal := func(err error) {
		logger.Error(err.Error())
		os.Exit(1)
	}
	cfg := &s.cfg
	cfg.Logger = logger

	if s.replay != "" {
		tr0 := time.Now()
		res, checks, violations, err := server.ReplayFile(*cfg, s.replay)
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

	if s.chaos {
		inj := faultinject.New(s.chaosCfg)
		cfg.Middleware = inj.Middleware
		// Stamp the fault schedule into incident snapshots so pmsdoctor
		// -replay can rebuild the exact same chaos during reproduction.
		if ccJSON, err := json.Marshal(s.chaosCfg); err == nil {
			cfg.FlightRecMeta = map[string]string{server.ChaosConfigMetaKey: string(ccJSON)}
		}
		logger.Info("pmsd CHAOS MODE: "+inj.String(), "seed", s.chaosCfg.Seed)
	}
	if s.record != "" {
		// The capture point sits outside chaos and admission, so the tape
		// holds every offered request, including ones later refused.
		cfg.Tape = replay.NewTape(s.seed)
		logger.Info("pmsd recording mutating requests to "+s.record, "file", s.record)
	}
	if s.store.Dir != "" {
		st, err := mapstore.Open(s.store)
		if err != nil {
			fatal(fmt.Errorf("store: %w", err))
		}
		cfg.Store = st
		logger.Info("pmsd store at "+s.store.Dir, "dir", s.store.Dir, "budget_mib", s.store.BudgetBytes>>20)
	}
	srv := server.New(*cfg)
	if cfg.Store != nil && s.storeWarm > 0 {
		if admitted := srv.WarmStart(s.storeWarm); admitted > 0 {
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
		if err := trace.Save(s.record); err != nil {
			fatal(fmt.Errorf("saving trace: %w", err))
		}
		logger.Info("pmsd trace saved to "+s.record, "recorded", len(trace.Records), "dropped", dropped)
	}
	logger.Info("pmsd stopped")
}
