// Integration tests for the request-tracing layer: stage spans recorded
// on real requests, the /debug/requests document, request-ID echo, and
// the sampling switch.
package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obsv"
)

func debugRequests(t *testing.T, ts *httptest.Server) obsv.Snapshot {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/requests status %d", resp.StatusCode)
	}
	var snap obsv.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestDebugRequestsRecordsStageSpans(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	spec := modSpec(10, 7)
	// Singleton (coalesced path, registry materialize), then an explicit
	// batch (runTask path, registry hit).
	if status := post(t, ts.Client(), ts.URL+"/v1/color", ColorRequest{
		Mapping: spec, Node: &NodeRef{Index: 3, Level: 2},
	}, nil); status != http.StatusOK {
		t.Fatalf("singleton status %d", status)
	}
	if status := post(t, ts.Client(), ts.URL+"/v1/color", ColorRequest{
		Mapping: spec, Nodes: []NodeRef{{0, 0}, {1, 1}},
	}, nil); status != http.StatusOK {
		t.Fatalf("batch status %d", status)
	}

	snap := debugRequests(t, ts)
	if snap.SampleRate != 1 {
		t.Errorf("sample_rate = %g, want 1 (default)", snap.SampleRate)
	}
	if snap.Finished != 2 {
		t.Errorf("traces_finished = %d, want 2", snap.Finished)
	}
	for _, stage := range []string{
		"admission_wait", "coalesce_wait", "registry_acquire_materialize",
		"registry_acquire_hit", "batch_compute", "response_write", "total",
	} {
		if snap.Stages[stage].Count == 0 {
			t.Errorf("stage %q has no observations (stages: %v)", stage, keys(snap.Stages))
		}
	}
	if len(snap.Slowest) != 2 {
		t.Fatalf("slowest holds %d traces, want 2", len(snap.Slowest))
	}
	for _, tr := range snap.Slowest {
		if tr.ID == "" || tr.Endpoint != "color" || tr.Status != 200 {
			t.Errorf("trace header = %+v", tr)
		}
		if len(tr.Spans) < 3 {
			t.Errorf("trace %s carries %d spans: %+v", tr.ID, len(tr.Spans), tr.Spans)
		}
	}
}

func keys(m map[string]obsv.StageSnapshot) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestRequestIDAdoptedAndEchoed proves a client-supplied X-Request-Id
// becomes the trace ID and is echoed on the response.
func TestRequestIDAdoptedAndEchoed(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	body := `{"mapping":{"alg":"mod","levels":8,"modules":3},"node":{"index":0,"level":0}}`
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/color", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obsv.HeaderRequestID, "join-me-42")
	req.Header.Set(obsv.HeaderClientAttempt, "3")
	req.Header.Set(obsv.HeaderClientElapsedUS, "2500")
	req.Header.Set(obsv.HeaderClientHedge, "1")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obsv.HeaderRequestID); got != "join-me-42" {
		t.Errorf("echoed request ID = %q, want join-me-42", got)
	}

	snap := debugRequests(t, ts)
	if len(snap.Slowest) != 1 {
		t.Fatalf("slowest holds %d traces, want 1", len(snap.Slowest))
	}
	tr := snap.Slowest[0]
	if tr.ID != "join-me-42" {
		t.Errorf("trace ID = %q, want the client-supplied join-me-42", tr.ID)
	}
	if tr.Client == nil {
		t.Fatal("client metadata missing from trace")
	}
	if tr.Client.Attempt != 3 || tr.Client.ElapsedUS != 2500 || !tr.Client.Hedge {
		t.Errorf("client metadata = %+v, want attempt=3 elapsed=2500 hedge", tr.Client)
	}
}

// TestTracingDisabled proves a negative sample rate turns the layer off:
// no traces, no generated request IDs.
func TestTracingDisabled(t *testing.T) {
	ts := httptest.NewServer(New(Config{TraceSampleRate: -1}).Handler())
	defer ts.Close()

	resp, err := ts.Client().Post(ts.URL+"/v1/color", "application/json",
		strings.NewReader(`{"mapping":{"alg":"mod","levels":8,"modules":3},"node":{"index":0,"level":0}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obsv.HeaderRequestID); got != "" {
		t.Errorf("disabled tracer still generated request ID %q", got)
	}
	snap := debugRequests(t, ts)
	if snap.Sampled != 0 || len(snap.Slowest) != 0 {
		t.Errorf("disabled tracer recorded traces: %+v", snap)
	}
}

// TestTraceSampling checks the counter-based sampler traces ~1/k of
// requests at rate 1/k.
func TestTraceSampling(t *testing.T) {
	ts := httptest.NewServer(New(Config{TraceSampleRate: 0.25}).Handler())
	defer ts.Close()

	for i := 0; i < 40; i++ {
		if status := post(t, ts.Client(), ts.URL+"/v1/color", ColorRequest{
			Mapping: modSpec(8, 3), Node: &NodeRef{Index: 0, Level: 0},
		}, nil); status != http.StatusOK {
			t.Fatalf("status %d", status)
		}
	}
	snap := debugRequests(t, ts)
	if snap.Sampled != 10 {
		t.Errorf("sampled = %d of 40 at rate 0.25, want 10", snap.Sampled)
	}
	if snap.Started != 40 {
		t.Errorf("requests_seen = %d, want 40", snap.Started)
	}
}
