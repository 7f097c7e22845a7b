// Record/replay against fresh servers: pmsd -replay and pmsdoctor
// -replay re-drive a PMSTRC1 trace sequentially against a deterministic
// server built by replayServerConfig. Replay servers run with coalescing
// off (batch size 1) and tracing off: replay is sequential, so batching
// has nothing to join, and trace sampling draws randomness. The
// guarantee is replay-to-replay determinism: the same trace always
// yields the same digest; a live recording run is concurrent and its
// interleaving is not reproduced.
package server

import (
	"context"
	"time"

	"repro/internal/replay"
)

// The capture point records tenants under the same header the
// admission layer reads and the replayer restores; a mismatch would
// silently unbind replay from per-tenant accounting. The duplicate-key
// trick makes a drift a compile error.
var _ = map[bool]struct{}{false: {}, TenantHeader == replay.TenantHeader: {}}

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
	frame := srv.metricFrame()
	tenants := make(map[string]int64, len(frame.Tenants))
	for name, tn := range frame.Tenants {
		tenants[name] = tn.Requests
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := srv.Shutdown(ctx)
	return res, frame.BoundChecks, frame.BoundViolations, tenants, err
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
