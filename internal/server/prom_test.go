// Tests for the GET /metrics Prometheus exposition: a golden test pins
// the wire format byte-for-byte, an end-to-end test drives real requests
// through the handlers and checks the bound monitor, and a leak test
// scrapes concurrently under load.
package server

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	dm "repro/internal/metrics"
	"repro/internal/obsv"
	"repro/internal/testutil"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// populateDeterministic fills a fresh server's counters with fixed
// values so the exposition is byte-stable. Durations are chosen to land
// in distinct histogram buckets.
func populateDeterministic(s *Server) {
	m := s.met
	m.endpoints[0].observe(200, 300*time.Microsecond)
	m.endpoints[0].observe(400, 100*time.Microsecond)
	m.endpoints[1].observe(200, 1500*time.Microsecond)
	m.endpoints[2].observe(500, 9*time.Microsecond)
	m.endpoints[3].observe(200, 700*time.Microsecond)
	m.endpoints[4].observe(200, 2500*time.Microsecond)
	m.endpoints[5].observe(400, 60*time.Microsecond)
	ta := m.tenants.get("alpha")
	ta.requests.Store(9)
	ta.rejected.Store(1)
	ta.inflight.Store(2)
	tb := m.tenants.get(anonTenant)
	tb.requests.Store(4)
	m.rejected429.Store(2)
	m.batchesFlushed.Store(4)
	m.batchesRejected.Store(1)
	m.coalescedJobs.Store(3)
	m.batchSize.Observe(1)
	m.batchSize.Observe(6)
	m.kernelBatches.Store(3)
	m.fallbackBatches.Store(1)
	m.batchComputeNS.Observe(800)
	m.batchComputeNS.Observe(12000)
	m.registryHits.Store(7)
	m.registryMisses.Store(2)
	m.registryEvictions.Store(1)
	m.registryBytes.Store(4096)
	m.registryAcquireHits.Store(5)
	m.registryAcquireMaterializes.Store(2)
	m.simBatches.Store(3)
	m.simRequests.Store(21)
	m.simCycles.Store(9)
	m.simConflicts.Store(6)
	m.simIdleSteps.Store(1)

	// One sampled trace with caller-supplied span durations; Finish is
	// not called (it would record a wall-clock total stage).
	base := time.Unix(1700000000, 0)
	tr := obsv.Record{ID: "req-1", Endpoint: "color"}
	s.trc.Sample(&tr, base)
	tr.Span(obsv.StageAdmissionWait, base, 40*time.Microsecond)
	tr.Span(obsv.StageBatchCompute, base, 250*time.Microsecond)

	d := s.dom
	rec := d.Recorder()
	rec.Access(0, 5)
	rec.Access(2, 3)
	rec.Access(6, 4)
	rec.Batch(2)
	rec.Batch(0)
	d.ObserveFamily("S", 0)
	d.ObserveFamily("S", 1)
	d.ObserveFamily("P", 3)
	d.ObserveFamily("C", 9)
	d.ObserveSpec("color/H=10/m=3", "S", 1)
	d.ObserveSpec("color/H=10/m=3", "P", 0)
	d.ObserveSpec("mod/H=10/M=7", "C", 4)
	// One applicable bound check (Theorem 4: S(7) on color m=3) and one
	// inapplicable (mod mapping has no theorem).
	d.CheckBound(dm.BoundQuery{Alg: "color", M: 3, Levels: 10, Kind: "S", Size: 7}, 1)
	d.CheckBound(dm.BoundQuery{Alg: "mod", Levels: 10, Kind: "S", Size: 7}, 5)
}

func scrapeMetrics(t *testing.T, h http.Handler) (string, *dm.Scrape) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	body := rec.Body.String()
	sc, err := dm.ParseExposition(body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	return body, sc
}

// TestMetricsExpositionGolden pins the full exposition byte-for-byte.
// Run with -update to regenerate after an intentional format change.
func TestMetricsExpositionGolden(t *testing.T) {
	srv := New(Config{})
	defer shutdownServer(t, srv)
	populateDeterministic(srv)

	got, _ := scrapeMetrics(t, srv.Handler())

	golden := filepath.Join("testdata", "metrics_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to generate): %v", err)
	}
	if !bytes.Equal([]byte(got), want) {
		t.Fatalf("exposition differs from golden (run with -update if intentional)\n%s", lineDiff(string(want), got))
	}
}

// lineDiff renders the first divergence between two multi-line strings.
func lineDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("first diff at line %d:\n  want: %q\n  got:  %q", i+1, w, g)
		}
	}
	return "no line diff (length mismatch?)"
}

func shutdownServer(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

func postJSON(t *testing.T, client *http.Client, url, body string) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, buf.String())
	}
}

// TestMetricsEndToEndBoundMonitor drives real requests through the
// handlers and asserts the domain layer observed them: per-module
// accounting, family histograms, applicable bound checks with zero
// violations, simulate aggregates, and registry acquire attribution.
func TestMetricsEndToEndBoundMonitor(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		shutdownServer(t, srv)
	}()
	c := ts.Client()

	mapping := `{"alg":"color","levels":10,"m":3}`
	// Anchored S(7) at the root: Theorem 4 bound 1 applies (M=2^3-1=7).
	postJSON(t, c, ts.URL+"/v1/template-cost",
		`{"mapping":`+mapping+`,"kind":"S","size":7,"anchor":{"index":0,"level":0}}`)
	// Family P(6): Theorem 3 bound 0 applies (N=2^2+2=6 ≤ levels).
	postJSON(t, c, ts.URL+"/v1/template-cost",
		`{"mapping":`+mapping+`,"kind":"P","size":6}`)
	// Composite of two disjoint S(3): Theorem 6 bound 4*ceil(6/7)+2 = 6.
	postJSON(t, c, ts.URL+"/v1/template-cost",
		`{"mapping":`+mapping+`,"parts":[`+
			`{"kind":"S","anchor":{"index":0,"level":1},"size":3},`+
			`{"kind":"S","anchor":{"index":1,"level":1},"size":3}]}`)
	// One simulate replay: 4 requests across 2 batches.
	postJSON(t, c, ts.URL+"/v1/simulate",
		`{"mapping":`+mapping+`,"batches":[[0,1,2],[3]]}`)

	_, sc := scrapeMetrics(t, srv.Handler())
	mustValue := func(name string, labels ...dm.Label) float64 {
		t.Helper()
		v, ok := sc.Value(name, labels...)
		if !ok {
			t.Fatalf("series %s%v absent from /metrics", name, labels)
		}
		return v
	}

	if v := mustValue("pmsd_bound_checks_total"); v < 3 {
		t.Errorf("bound_checks_total = %v, want >= 3", v)
	}
	if v := mustValue("pmsd_bound_violations_total"); v != 0 {
		t.Errorf("bound_violations_total = %v, want 0", v)
	}
	if v := mustValue("pmsd_accesses_total"); v <= 0 {
		t.Errorf("accesses_total = %v, want > 0", v)
	}
	if len(sc.Series("pmsd_module_accesses_total")) == 0 {
		t.Error("no per-module access series")
	}
	if v := mustValue("pmsd_module_load_ratio"); v < 1 {
		t.Errorf("module_load_ratio = %v, want >= 1", v)
	}
	if v := mustValue("pmsd_sim_requests_total"); v != 4 {
		t.Errorf("sim_requests_total = %v, want 4", v)
	}
	mustValue("pmsd_sim_idle_steps_total")
	if v := mustValue("pmsd_registry_acquire_materializes_total"); v < 1 {
		t.Errorf("registry_acquire_materializes_total = %v, want >= 1", v)
	}
	for _, fam := range []string{"S", "P", "C"} {
		if _, ok := sc.Value("pmsd_template_conflicts_count", dm.Label{Name: "family", Value: fam}); !ok {
			t.Errorf("family histogram %q absent", fam)
		}
	}
}

// TestMetricsScrapeConcurrentNoLeak hammers /metrics from several
// scrapers while request traffic runs, then checks every goroutine
// wound down (satellite c's leak check for the scrape path).
func TestMetricsScrapeConcurrentNoLeak(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	c := ts.Client()

	const scrapers, writers, iters = 4, 4, 25
	var wg sync.WaitGroup
	for i := 0; i < scrapers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				resp, err := c.Get(ts.URL + "/metrics")
				if err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
				var buf bytes.Buffer
				_, _ = buf.ReadFrom(resp.Body)
				resp.Body.Close()
				if _, err := dm.ParseExposition(buf.String()); err != nil {
					t.Errorf("mid-load scrape does not parse: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := `{"mapping":{"alg":"color","levels":8,"m":2},"kind":"S","size":3,` +
				`"anchor":{"index":0,"level":` + fmt.Sprint(i%3) + `}}`
			for j := 0; j < iters; j++ {
				resp, err := c.Post(ts.URL+"/v1/template-cost", "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("post: %v", err)
					return
				}
				_, _ = bytes.NewBuffer(nil).ReadFrom(resp.Body)
				resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()

	ts.Close()
	c.CloseIdleConnections()
	shutdownServer(t, srv)
}
