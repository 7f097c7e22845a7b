// Determinism tests for the record/replay layer: a mixed multi-tenant
// recording made with the flight recorder fully on must capture every
// request and replay twice to bit-identical digests, also after a round
// trip through disk; and a recording taken under chaos (injected 429/500
// failures) must still replay deterministically — same digests AND same
// domain-metric snapshots.
package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/replay"
	"repro/internal/testutil"
	"repro/internal/tree"
	"repro/internal/workload"
)

// mixedPaths are the request kinds a mixed recording rotates through.
var mixedPaths = [...]string{"/v1/color", "/v1/template-cost", "/v1/range", "/v1/heap/workload"}

const (
	mixedClients   = 4
	mixedPerClient = 50
	mixedSeed      = 7
)

// mixedBody encodes request i of a mixed recording for path. Every
// request is valid, so a clean server answers each one 200.
func mixedBody(t *testing.T, path string, i int) []byte {
	t.Helper()
	spec := MappingSpec{Alg: "color", Levels: 10, M: 3}
	space := tree.New(spec.Levels).Nodes()
	n := tree.FromHeapIndex(int64(i*37) % space)
	var req any
	switch path {
	case "/v1/color":
		req = ColorRequest{Mapping: spec, Node: &NodeRef{Index: n.Index, Level: n.Level}}
	case "/v1/template-cost":
		// The ascending path to the root is valid from every node.
		req = TemplateCostRequest{Mapping: spec, Kind: "P", Size: int64(n.Level) + 1,
			Anchor: &NodeRef{Index: n.Index, Level: n.Level}}
	case "/v1/range":
		lo := n.HeapIndex()
		req = RangeRequest{Mapping: spec, Ranges: [][2]int64{{lo, min(lo+16, space-1)}}}
	default:
		req = HeapWorkloadRequest{Mapping: spec, N: 64, Dist: "zipf", Seed: int64(i)}
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// mixedLive counts the answers the clients of one mixed run saw.
type mixedLive struct{ Requests, Rejected, Errors int64 }

// driveMixed starts a server from cfg on a real socket, sends it
// mixedClients concurrent clients' worth of mixed traffic and shuts it
// down. Request i of client c is kind i%4 from tenant (c+i)%4, so across
// the clients every tenant sends every kind.
func driveMixed(t *testing.T, cfg Config) (*Server, mixedLive) {
	t.Helper()
	srv := New(cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, srv)
	tenants := workload.TenantNames(4)
	reqs := make([][]*http.Request, mixedClients)
	for c := range reqs {
		for i := 0; i < mixedPerClient; i++ {
			path := mixedPaths[i%len(mixedPaths)]
			body := mixedBody(t, path, c*mixedPerClient+i)
			req, err := http.NewRequest(http.MethodPost, "http://"+srv.Addr()+path, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set(TenantHeader, tenants[(c+i)%len(tenants)])
			reqs[c] = append(reqs[c], req)
		}
	}
	transport := &http.Transport{MaxIdleConnsPerHost: mixedClients}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 30 * time.Second}
	var ok, rejected, errs atomic.Int64
	var wg sync.WaitGroup
	for _, mine := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, req := range mine {
				resp, err := client.Do(req)
				if err != nil {
					errs.Add(1)
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ok.Add(1)
				case http.StatusTooManyRequests:
					rejected.Add(1)
				default:
					errs.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return srv, mixedLive{Requests: ok.Load(), Rejected: rejected.Load(), Errors: errs.Load()}
}

// TestMixedRecordReplayDeterminism records mixed multi-tenant traffic
// with the flight recorder at its defaults (watchdog running) and the
// tape attached, then holds the record/replay claims: every served
// request became a flight event, nothing was dropped, the bound monitor
// stayed at zero live and in replay, and two replays agree on digest and
// bound checks, also after the trace round-trips through disk.
func TestMixedRecordReplayDeterminism(t *testing.T) {
	defer testutil.CheckGoroutines(t)()

	cfg := Config{Workers: 4, Tape: replay.NewTape(mixedSeed)}
	srv, live := driveMixed(t, cfg)
	if live.Requests == 0 {
		t.Fatalf("recording run served nothing: %+v", live)
	}
	if ev := srv.fr.Counters().Events; ev < live.Requests {
		t.Errorf("flight events %d for %d served requests", ev, live.Requests)
	}
	if _, _, v := srv.dom.Counters(); v != 0 {
		t.Errorf("recording run saw %d bound violations", v)
	}
	trace, dropped := cfg.Tape.Trace()
	if dropped != 0 || int64(len(trace.Records)) < live.Requests {
		t.Fatalf("tape holds %d records with %d dropped for %d served", len(trace.Records), dropped, live.Requests)
	}

	first, checks1, viol1, tenants, err := replayOnce(cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	second, checks2, viol2, _, err := replayOnce(cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	if first.Digest != second.Digest || first.Requests != second.Requests {
		t.Errorf("replays diverged: %s (%d) vs %s (%d)", first.Digest, first.Requests, second.Digest, second.Requests)
	}
	if checks1 == 0 || checks1 != checks2 {
		t.Errorf("replay bound checks %d vs %d, want equal and nonzero", checks1, checks2)
	}
	if viol1+viol2 != 0 {
		t.Errorf("replay bound violations = %d, want 0", viol1+viol2)
	}
	if len(tenants) == 0 {
		t.Error("replay saw no tenant accounting")
	}

	// The persisted trace replays to the same digest after a round trip
	// through disk: the file format loses nothing the digest covers.
	path := filepath.Join(t.TempDir(), "mixed.pmstrc")
	if err := trace.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := replay.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	reloaded, _, _, _, err := replayOnce(cfg, loaded)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Digest != first.Digest {
		t.Errorf("digest after disk round trip = %s, want %s", reloaded.Digest, first.Digest)
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

	cfg := Config{Workers: 4, Middleware: chaosMiddleware, Tape: replay.NewTape(mixedSeed)}
	_, live := driveMixed(t, cfg)
	trace, dropped := cfg.Tape.Trace()
	if len(trace.Records) == 0 {
		t.Fatal("chaos run recorded nothing")
	}
	if trace.Seed != mixedSeed || dropped != 0 {
		t.Fatalf("tape seed %d dropped %d, want seed %d and no drops", trace.Seed, dropped, mixedSeed)
	}
	if live.Errors == 0 && live.Rejected == 0 {
		t.Fatal("chaos middleware injected no failures; the test is vacuous")
	}

	type run struct {
		res    replay.Result
		domain string
	}
	replayRun := func() run {
		srv := New(replayServerConfig(cfg))
		res := replay.Replay(srv.Handler(), trace)
		if srv.dom == nil {
			t.Fatal("domain metrics disabled on replay server")
		}
		dom, err := json.Marshal(srv.dom.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		shutdownServer(t, srv)
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
