// Integration tests for the request-tracing layer: stage spans recorded
// on real requests, the /debug/requests document, request-ID echo, and
// the sampling switch.
package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/flightrec"
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
	// batch (serve path, registry hit).
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

// TestFlightEventJoinsTrace pins the join between a request's flight
// event and its trace, which both come from one record: a traced
// request's event carries the per-stage sums of the trace's spans and
// the trace's identity, and an unsampled request's event carries zero
// stages. At sample rate 0.5 the counter traces every second request,
// so each path (coalesced singleton, explicit batch) runs once
// unsampled, then once traced.
func TestFlightEventJoinsTrace(t *testing.T) {
	srv := New(Config{TraceSampleRate: 0.5, flightManual: true})
	defer shutdownServer(t, srv)
	ts := httptest.NewServer(srv.httpSrv.Handler)
	defer ts.Close()

	spec := modSpec(10, 7)
	bodies := []ColorRequest{
		{Mapping: spec, Node: &NodeRef{Index: 3, Level: 2}},
		{Mapping: spec, Node: &NodeRef{Index: 3, Level: 2}},
		{Mapping: spec, Nodes: []NodeRef{{0, 0}, {1, 1}, {5, 3}}},
		{Mapping: spec, Nodes: []NodeRef{{0, 0}, {1, 1}, {5, 3}}},
	}
	for i, body := range bodies {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/color", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(TenantHeader, "t-join")
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}

	events := srv.fr.EventsSnapshot()
	if len(events) != len(bodies) {
		t.Fatalf("%d flight events, want %d", len(events), len(bodies))
	}
	traces := map[string]obsv.TraceSnapshot{}
	for _, tr := range srv.trc.Snapshot().Slowest {
		traces[tr.ID] = tr
	}
	if len(traces) != 2 {
		t.Fatalf("%d traces, want 2 (every second request)", len(traces))
	}
	for i, ev := range events {
		if ev.RequestID == "" || ev.Tenant != "t-join" || ev.Requested != spec.Key() || ev.Effective != spec.Key() {
			t.Errorf("event %d identity = %+v", i, ev)
		}
		tr, traced := traces[ev.RequestID]
		if traced != (i%2 == 1) {
			t.Fatalf("event %d (%s): traced = %v, want every second request traced", i, ev.RequestID, traced)
		}
		if !traced {
			if ev.StagesUS != ([obsv.NumStages]int64{}) {
				t.Errorf("unsampled event %d carries stages %v, want zeroes", i, ev.StagesUS)
			}
			continue
		}
		checkEventJoinsTrace(t, ev, tr)
	}
}

// checkEventJoinsTrace compares one flight event with its trace.
func checkEventJoinsTrace(t *testing.T, ev flightrec.Event, tr obsv.TraceSnapshot) {
	t.Helper()
	if ev.Tenant != tr.Tenant || ev.Effective != tr.Mapping {
		t.Errorf("event %s: tenant %q mapping %q, trace has tenant %q mapping %q",
			ev.RequestID, ev.Tenant, ev.Effective, tr.Tenant, tr.Mapping)
	}
	var sums [obsv.NumStages]int64
	for _, sp := range tr.Spans {
		found := false
		for s := obsv.Stage(0); int(s) < obsv.NumStages; s++ {
			if s.String() == sp.Stage {
				sums[s] += sp.DurUS
				found = true
			}
		}
		if !found {
			t.Errorf("trace %s: span of unknown stage %q", tr.ID, sp.Stage)
		}
	}
	if ev.StagesUS != sums {
		t.Errorf("event %s stages_us %v, trace spans sum to %v", ev.RequestID, ev.StagesUS, sums)
	}
	if ev.StagesUS[obsv.StageTotal] != 0 {
		t.Errorf("event %s stages_us[total] = %d, want 0", ev.RequestID, ev.StagesUS[obsv.StageTotal])
	}
	if len(tr.Spans) < 4 {
		t.Errorf("trace %s carries %d spans, want admission, registry, compute and write: %+v",
			tr.ID, len(tr.Spans), tr.Spans)
	}
}
