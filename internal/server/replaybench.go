// Record/replay benchmark: records a Zipf-skewed multi-tenant mixed
// workload onto a replay.Tape through the capture point, then replays
// the trace twice against fresh servers and checks the determinism
// contract — both replays must produce bit-identical response digests —
// plus the domain invariant that the theorem-bound monitor sees zero
// violations. This is the `make bench-replay` entry recorded in
// BENCH_pr8.json.
//
// Replay servers run with coalescing off (batch size 1) and tracing off:
// replay is sequential, so cross-request batching would only add timer
// nondeterminism without exercising anything the trace pins down. The
// guarantee proved here is replay-to-replay determinism; the live
// recording run is concurrent and its interleaving is not reproduced.
package server

import (
	"context"
	"fmt"
	"time"

	"repro/internal/replay"
)

// The capture point records tenants under the same header the
// admission layer reads and the replayer restores; a mismatch would
// silently unbind replay from per-tenant accounting. The duplicate-key
// trick makes a drift a compile error.
var _ = map[bool]struct{}{false: {}, TenantHeader == replay.TenantHeader: {}}

// ReplayBenchConfig parameterizes one record/replay run.
type ReplayBenchConfig struct {
	// Load shapes the recorded traffic. Endpoint and Server.Tape are
	// owned by the bench (mix + tape); everything else is the caller's.
	// Tenants defaults to 8, Requests to 4000.
	Load LoadGenConfig
	// TracePath, when set, persists the recorded trace file.
	TracePath string
}

// ReplayBenchResult is the measured record/replay comparison.
type ReplayBenchResult struct {
	// Recording phase.
	Recorded    int64   `json:"recorded"`
	Dropped     int64   `json:"dropped"`
	RecordRPS   float64 `json:"record_req_per_sec"`
	TraceBytes  int     `json:"trace_bytes"`
	Tenants     int     `json:"tenants"`
	LiveOK      int64   `json:"live_ok"`
	LiveShed429 int64   `json:"live_rejected_429"`

	// Replay phase (two sequential replays of the same trace).
	ReplayRequests  int              `json:"replay_requests"`
	ReplaySeconds   float64          `json:"replay_seconds"`
	ReplayRPS       float64          `json:"replay_req_per_sec"`
	StatusCounts    map[int]int64    `json:"status_counts"`
	Digest          string           `json:"digest"`
	DigestRerun     string           `json:"digest_rerun"`
	Deterministic   bool             `json:"deterministic"`
	BoundChecks     int64            `json:"bound_checks"`
	BoundViolations int64            `json:"bound_violations"`
	TenantRequests  map[string]int64 `json:"tenant_requests,omitempty"`
}

// replayServerConfig derives the deterministic replay configuration from
// the recorded run's server config: no coalescing (replay is
// sequential), no trace sampling (sampling draws randomness).
func replayServerConfig(base Config) Config {
	c := base
	c.Addr = ""
	c.Middleware = nil
	c.Tape = nil
	c.MaxBatch = 1
	c.TraceSampleRate = -1
	// Replay servers keep the flight recorder for event capture but never
	// run its background watchdog (timer nondeterminism) or write
	// incidents of their own.
	c.FlightRecDir = ""
	c.flightManual = true
	return c
}

// replayOnce replays the trace against a fresh server and returns the
// replay result plus the server's domain bound counters.
func replayOnce(cfg Config, tr *replay.Trace) (replay.Result, int64, int64, map[string]int64, error) {
	srv := New(replayServerConfig(cfg))
	res := replay.Replay(srv.Handler(), tr)
	snap := srv.Metrics().Snapshot()
	tenants := make(map[string]int64, len(snap.Tenants))
	for _, tn := range snap.Tenants {
		tenants[tn.Tenant] = tn.Requests
	}
	var checks, violations int64
	if snap.Domain != nil {
		checks = snap.Domain.BoundChecks
		violations = snap.Domain.BoundViolations
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := srv.Shutdown(ctx)
	return res, checks, violations, tenants, err
}

// ReplayFile loads a trace from disk and replays it once against a
// fresh deterministic server (pmsd -replay). It returns the replay
// result plus the bound-monitor counters observed during the replay.
func ReplayFile(cfg Config, path string) (replay.Result, int64, int64, error) {
	tr, err := replay.Load(path)
	if err != nil {
		return replay.Result{}, 0, 0, err
	}
	res, checks, violations, _, err := replayOnce(cfg, tr)
	return res, checks, violations, err
}

// RunReplayBench records one mixed multi-tenant run and replays it twice.
func RunReplayBench(cfg ReplayBenchConfig) (ReplayBenchResult, error) {
	load := cfg.Load.withDefaults()
	load.Endpoint = "mix"
	if load.Tenants <= 0 {
		load.Tenants = 8
	}
	if cfg.Load.Requests <= 0 {
		load.Requests = 4000
	}

	tape := replay.NewTape(load.Seed)
	load.Server.Tape = tape

	live, err := RunLoadGen(load, "record")
	if err != nil {
		return ReplayBenchResult{}, fmt.Errorf("recording run: %w", err)
	}
	trace, dropped := tape.Trace()
	if len(trace.Records) == 0 {
		return ReplayBenchResult{}, fmt.Errorf("recording run captured no records")
	}
	if cfg.TracePath != "" {
		if err := trace.Save(cfg.TracePath); err != nil {
			return ReplayBenchResult{}, fmt.Errorf("saving trace: %w", err)
		}
	}

	res := ReplayBenchResult{
		Recorded:    int64(len(trace.Records)),
		Dropped:     dropped,
		RecordRPS:   live.ReqPerSec,
		TraceBytes:  len(replay.Encode(trace)),
		Tenants:     load.Tenants,
		LiveOK:      live.Requests,
		LiveShed429: live.Rejected,
	}

	start := time.Now()
	first, checks1, viol1, tenants1, err := replayOnce(load.Server, trace)
	if err != nil {
		return ReplayBenchResult{}, fmt.Errorf("first replay: %w", err)
	}
	res.ReplaySeconds = time.Since(start).Seconds()
	second, checks2, viol2, _, err := replayOnce(load.Server, trace)
	if err != nil {
		return ReplayBenchResult{}, fmt.Errorf("second replay: %w", err)
	}

	res.ReplayRequests = first.Requests
	if res.ReplaySeconds > 0 {
		res.ReplayRPS = float64(first.Requests) / res.ReplaySeconds
	}
	res.StatusCounts = first.StatusCounts
	res.Digest = first.Digest
	res.DigestRerun = second.Digest
	res.Deterministic = first.Digest == second.Digest && first.Requests == second.Requests
	res.BoundChecks = checks1
	res.BoundViolations = viol1 + viol2
	res.TenantRequests = tenants1
	if checks1 != checks2 {
		return res, fmt.Errorf("replay bound checks diverged: %d vs %d", checks1, checks2)
	}
	if !res.Deterministic {
		return res, fmt.Errorf("replay digests diverged: %s vs %s", first.Digest, second.Digest)
	}
	if res.BoundViolations != 0 {
		return res, fmt.Errorf("replay bench: %d bound violations", res.BoundViolations)
	}
	return res, nil
}
