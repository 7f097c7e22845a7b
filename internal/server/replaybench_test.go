// Determinism tests for the record/replay layer: the replay bench must
// report bit-identical digests across its two replays, a trace saved to
// disk must replay to the same digest after a reload, and a recording
// taken under chaos (injected 429/500 failures) must still replay
// deterministically — same digests AND same domain-metric snapshots.
package server

import (
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/replay"
	"repro/internal/testutil"
)

func shutdownTestServer(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func smallReplayLoad() LoadGenConfig {
	return LoadGenConfig{
		Mapping:  MappingSpec{Alg: "color", Levels: 10, M: 3},
		Clients:  4,
		Requests: 200,
		Seed:     7,
		Tenants:  4,
		Server:   Config{Workers: 4},
	}
}

func TestReplayBenchDeterministic(t *testing.T) {
	defer testutil.CheckGoroutines(t)()

	tracePath := filepath.Join(t.TempDir(), "bench.pmstrc")
	res, err := RunReplayBench(ReplayBenchConfig{Load: smallReplayLoad(), TracePath: tracePath})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deterministic {
		t.Fatalf("replays diverged: %s vs %s", res.Digest, res.DigestRerun)
	}
	if res.Recorded == 0 || res.ReplayRequests == 0 {
		t.Fatalf("empty bench: %+v", res)
	}
	if res.BoundChecks == 0 {
		t.Error("replay performed no theorem-bound checks")
	}
	if res.BoundViolations != 0 {
		t.Errorf("bound violations = %d, want 0", res.BoundViolations)
	}
	if len(res.TenantRequests) == 0 {
		t.Error("replay saw no tenant accounting")
	}

	// The persisted trace replays to the same digest after a round trip
	// through disk: the file format loses nothing the digest covers.
	tr, err := replay.Load(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	reloaded, _, _, _, err := replayOnce(smallReplayLoad().Server, tr)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Digest != res.Digest {
		t.Errorf("digest after disk round trip = %s, want %s", reloaded.Digest, res.Digest)
	}
}

// chaosMiddleware deterministically sheds traffic before it reaches the
// mux: every 5th request is refused 429, every 7th fails 500. The
// capture point wraps OUTSIDE it, so the tape holds the full offered
// stream including requests the live run never served.
func chaosMiddleware(next http.Handler) http.Handler {
	var n atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := n.Add(1)
		switch {
		case i%5 == 0:
			http.Error(w, "chaos: shed", http.StatusTooManyRequests)
		case i%7 == 0:
			http.Error(w, "chaos: injected failure", http.StatusInternalServerError)
		default:
			next.ServeHTTP(w, r)
		}
	})
}

// TestChaosRecordReplayDeterminism records a run whose live responses
// were partly chaos (so live results are NOT what replay reproduces),
// replays the trace twice on clean servers, and requires bit-identical
// response digests and identical domain-metric snapshots — the
// replay-to-replay determinism contract under the ugliest recording
// conditions.
func TestChaosRecordReplayDeterminism(t *testing.T) {
	defer testutil.CheckGoroutines(t)()

	load := smallReplayLoad()
	tape := replay.NewTape(load.Seed)
	load.Endpoint = "mix"
	load.Server.Middleware = chaosMiddleware
	load.Server.Tape = tape
	live, err := RunLoadGen(load, "chaos_record")
	if err != nil {
		t.Fatal(err)
	}
	trace, dropped := tape.Trace()
	if len(trace.Records) == 0 {
		t.Fatal("chaos run recorded nothing")
	}
	if trace.Seed != load.Seed || dropped != 0 {
		t.Fatalf("tape seed %d dropped %d, want seed %d and no drops", trace.Seed, dropped, load.Seed)
	}
	if live.Errors == 0 && live.Rejected == 0 {
		t.Fatal("chaos middleware injected no failures; the test is vacuous")
	}

	type run struct {
		res    replay.Result
		domain string
	}
	replayRun := func() run {
		srv := New(replayServerConfig(load.Server))
		res := replay.Replay(srv.Handler(), trace)
		snap := srv.Metrics().Snapshot()
		if snap.Domain == nil {
			t.Fatal("domain metrics disabled on replay server")
		}
		dom, err := json.Marshal(snap.Domain)
		if err != nil {
			t.Fatal(err)
		}
		shutdownTestServer(t, srv)
		return run{res: res, domain: string(dom)}
	}
	first := replayRun()
	second := replayRun()

	if first.res.Digest != second.res.Digest {
		t.Errorf("chaos replay digests diverged:\n  %s\n  %s", first.res.Digest, second.res.Digest)
	}
	if first.res.Requests != second.res.Requests {
		t.Errorf("replay request counts diverged: %d vs %d", first.res.Requests, second.res.Requests)
	}
	if first.domain != second.domain {
		t.Errorf("domain snapshots diverged:\n  %s\n  %s", first.domain, second.domain)
	}
	// Clean replay servers shed nothing: every recorded request is
	// served, so the digest covers the entire trace.
	if c := first.res.StatusCounts[http.StatusTooManyRequests]; c != 0 {
		t.Errorf("replay shed %d requests; sequential replay must admit all", c)
	}
}
