package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/coloring"
	"repro/internal/colormap"
	dm "repro/internal/metrics"
	"repro/internal/pms"
	"repro/internal/template"
	"repro/internal/tree"
)

// post sends a JSON body and decodes the reply into out (if non-nil),
// returning the status code.
func post(t *testing.T, client *http.Client, url string, body any, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp.StatusCode
}

func modSpec(levels, modules int) MappingSpec {
	return MappingSpec{Alg: "mod", Levels: levels, Modules: modules}
}

func TestColorSingleton(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	spec := MappingSpec{Alg: "color", Levels: 16, M: 3}
	p, err := colormap.Canonical(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []tree.Node{tree.V(0, 0), tree.V(5, 3), tree.V(1000, 15)} {
		var resp ColorResponse
		status := post(t, ts.Client(), ts.URL+"/v1/color", ColorRequest{
			Mapping: spec, Node: &NodeRef{Index: n.Index, Level: n.Level},
		}, &resp)
		if status != http.StatusOK {
			t.Fatalf("status %d for %v", status, n)
		}
		want, err := colormap.Retrieve(p, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Colors) != 1 || resp.Colors[0] != want {
			t.Errorf("%v: got %v, want [%d]", n, resp.Colors, want)
		}
		if resp.Modules != p.Colors() {
			t.Errorf("modules = %d, want %d", resp.Modules, p.Colors())
		}
	}
}

func TestColorExplicitBatch(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	spec := modSpec(10, 7)
	refs := []NodeRef{{0, 0}, {3, 2}, {100, 8}, {511, 9}}
	var resp ColorResponse
	if status := post(t, ts.Client(), ts.URL+"/v1/color", ColorRequest{Mapping: spec, Nodes: refs}, &resp); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	for i, nr := range refs {
		want := int(nr.Node().HeapIndex() % 7)
		if resp.Colors[i] != want {
			t.Errorf("node %v: got %d, want %d", nr, resp.Colors[i], want)
		}
	}
}

func TestColorRejectsBadRequests(t *testing.T) {
	ts := httptest.NewServer(New(Config{MaxColorNodes: 4}).Handler())
	defer ts.Close()
	cases := []struct {
		name string
		req  ColorRequest
	}{
		{"no node", ColorRequest{Mapping: modSpec(10, 7)}},
		{"both node and nodes", ColorRequest{Mapping: modSpec(10, 7), Node: &NodeRef{0, 0}, Nodes: []NodeRef{{0, 0}}}},
		{"node outside tree", ColorRequest{Mapping: modSpec(10, 7), Node: &NodeRef{Index: 0, Level: 10}}},
		{"invalid index", ColorRequest{Mapping: modSpec(10, 7), Node: &NodeRef{Index: 9, Level: 2}}},
		{"negative index", ColorRequest{Mapping: modSpec(10, 7), Node: &NodeRef{Index: -1, Level: 2}}},
		{"unknown alg", ColorRequest{Mapping: MappingSpec{Alg: "nope", Levels: 5, Modules: 3}, Node: &NodeRef{0, 0}}},
		{"levels too big", ColorRequest{Mapping: modSpec(63, 7), Node: &NodeRef{0, 0}}},
		{"oversized batch", ColorRequest{Mapping: modSpec(10, 7), Nodes: make([]NodeRef, 5)}},
		{"color m too big", ColorRequest{Mapping: MappingSpec{Alg: "color", Levels: 30, M: 9}, Node: &NodeRef{0, 0}}},
	}
	for _, tc := range cases {
		if status := post(t, ts.Client(), ts.URL+"/v1/color", tc.req, nil); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, status)
		}
	}
}

func TestTemplateCostModes(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	spec := MappingSpec{Alg: "color", Levels: 12, M: 3}
	p, err := colormap.Canonical(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := colormap.Color(p)
	if err != nil {
		t.Fatal(err)
	}

	// Family mode: exact worst case over P(N) must match FamilyCost (and
	// the paper says COLOR is conflict-free on P(N)).
	var fam TemplateCostResponse
	if status := post(t, ts.Client(), ts.URL+"/v1/template-cost", TemplateCostRequest{
		Mapping: spec, Kind: "P", Size: int64(p.BandLevels),
	}, &fam); status != http.StatusOK {
		t.Fatalf("family status %d", status)
	}
	f, err := template.NewFamily(arr.Tree(), template.Path, int64(p.BandLevels))
	if err != nil {
		t.Fatal(err)
	}
	wantCost, _ := coloring.FamilyCost(arr, f)
	if fam.Conflicts != wantCost {
		t.Errorf("family conflicts = %d, want %d", fam.Conflicts, wantCost)
	}
	if fam.Witness == nil {
		t.Error("family mode should include a witness")
	}

	// Instance mode: one subtree instance.
	inst := template.Instance{Kind: template.Subtree, Anchor: tree.V(3, 4), Size: 7}
	var one TemplateCostResponse
	if status := post(t, ts.Client(), ts.URL+"/v1/template-cost", TemplateCostRequest{
		Mapping: spec, Kind: "S", Size: 7, Anchor: &NodeRef{Index: 3, Level: 4},
	}, &one); status != http.StatusOK {
		t.Fatalf("instance status %d", status)
	}
	if want := coloring.InstanceConflicts(arr, inst); one.Conflicts != want {
		t.Errorf("instance conflicts = %d, want %d", one.Conflicts, want)
	}

	// Composite mode: two disjoint parts.
	comp := template.Composite{Parts: []template.Instance{
		{Kind: template.Subtree, Anchor: tree.V(0, 5), Size: 7},
		{Kind: template.Level, Anchor: tree.V(100, 9), Size: 16},
	}}
	var cr TemplateCostResponse
	if status := post(t, ts.Client(), ts.URL+"/v1/template-cost", TemplateCostRequest{
		Mapping: spec,
		Parts: []InstanceRef{
			{Kind: "S", Anchor: NodeRef{0, 5}, Size: 7},
			{Kind: "L", Anchor: NodeRef{100, 9}, Size: 16},
		},
	}, &cr); status != http.StatusOK {
		t.Fatalf("composite status %d", status)
	}
	if want := coloring.CompositeConflicts(arr, comp); cr.Conflicts != want {
		t.Errorf("composite conflicts = %d, want %d", cr.Conflicts, want)
	}
	if cr.Items != comp.Size() {
		t.Errorf("composite items = %d, want %d", cr.Items, comp.Size())
	}

	// Family mode above the enumeration cap is a 400, not a hung worker.
	if status := post(t, ts.Client(), ts.URL+"/v1/template-cost", TemplateCostRequest{
		Mapping: MappingSpec{Alg: "color", Levels: 30, M: 3}, Kind: "P", Size: 6,
	}, nil); status != http.StatusBadRequest {
		t.Errorf("family above cap: status %d, want 400", status)
	}

	// Overlapping composite parts violate C(D,c) and are rejected.
	if status := post(t, ts.Client(), ts.URL+"/v1/template-cost", TemplateCostRequest{
		Mapping: spec,
		Parts: []InstanceRef{
			{Kind: "S", Anchor: NodeRef{0, 0}, Size: 7},
			{Kind: "P", Anchor: NodeRef{0, 1}, Size: 2},
		},
	}, nil); status != http.StatusBadRequest {
		t.Errorf("overlapping parts: status %d, want 400", status)
	}
}

func TestSimulateMatchesDirectReplay(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	spec := modSpec(10, 7)
	batches := [][]int64{{0, 1, 2, 7, 14}, {3, 3, 3}, {1022, 0}}

	var resp SimulateResponse
	if status := post(t, ts.Client(), ts.URL+"/v1/simulate", SimulateRequest{
		Mapping: spec, Batches: batches,
	}, &resp); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}

	m, _, err := spec.build()
	if err != nil {
		t.Fatal(err)
	}
	sys := pms.NewSystem(m)
	for _, idxs := range batches {
		nodes := make([]tree.Node, len(idxs))
		for i, h := range idxs {
			nodes[i] = tree.FromHeapIndex(h)
		}
		sys.SubmitDrain(nodes)
	}
	st := sys.Stats()
	if resp.Cycles != st.Cycles || resp.Conflicts != st.Conflicts || resp.Requests != st.Requests {
		t.Errorf("got %+v, want cycles=%d conflicts=%d requests=%d", resp, st.Cycles, st.Conflicts, st.Requests)
	}

	// Out-of-range heap index is a 400.
	if status := post(t, ts.Client(), ts.URL+"/v1/simulate", SimulateRequest{
		Mapping: spec, Batches: [][]int64{{1 << 40}},
	}, nil); status != http.StatusBadRequest {
		t.Errorf("oversized index: status %d, want 400", status)
	}
}

// openJobs returns how many lookups the coalescer's open group for spec
// holds (0 when there is none), read under the coalescer's lock.
func openJobs(c *coalescer, spec MappingSpec) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if g := c.groups[spec.Key()]; g != nil {
		return len(g.jobs)
	}
	return 0
}

// waitOpenJobs polls until spec's open group holds n lookups.
func waitOpenJobs(t *testing.T, c *coalescer, spec MappingSpec, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for openJobs(c, spec) != n {
		if time.Now().After(deadline) {
			t.Fatalf("open group holds %d lookups, want %d", openJobs(c, spec), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestCoalescing proves concurrent singleton lookups share batches: the
// first lookup's group is queued at once, the gated worker takes it but
// cannot seal it yet, so every later lookup joins it and the server
// answers all of them from one flushed batch.
func TestCoalescing(t *testing.T) {
	gate := make(chan struct{})
	srv := New(Config{
		Workers:    1,
		MaxBatch:   64,
		workerHook: func() { <-gate },
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clients = 24
	spec := modSpec(12, 5)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			n := tree.FromHeapIndex(int64(id * 31 % 4095))
			var resp ColorResponse
			status := post(t, ts.Client(), ts.URL+"/v1/color", ColorRequest{
				Mapping: spec, Node: &NodeRef{Index: n.Index, Level: n.Level},
			}, &resp)
			if status != http.StatusOK {
				errs <- fmt.Errorf("client %d: status %d", id, status)
				return
			}
			if want := int(n.HeapIndex() % 5); resp.Colors[0] != want {
				errs <- fmt.Errorf("client %d: color %d, want %d", id, resp.Colors[0], want)
			}
		}(c)
	}
	// Release the worker only once the open group holds every lookup.
	waitOpenJobs(t, srv.coal, spec, clients)
	close(gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if n := srv.met.batchesFlushed.Load(); n != 1 {
		t.Errorf("batches_flushed = %d, want 1", n)
	}
	if n := srv.met.coalescedJobs.Load(); n != clients {
		t.Errorf("coalesced_jobs = %d, want %d", n, clients)
	}
	if n := srv.met.endpoints[0].requests.Load(); n != clients {
		t.Errorf("color requests = %d, want %d", n, clients)
	}
}

// TestBackpressure saturates the admission limit and checks that excess
// requests get 429 + Retry-After while admitted ones still complete.
func TestBackpressure(t *testing.T) {
	gate := make(chan struct{})
	const maxInflight = 4
	srv := New(Config{
		Workers:     1,
		MaxInflight: maxInflight,
		MaxBatch:    1, // no coalescing: one request = one task
		workerHook:  func() { <-gate },
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := modSpec(10, 3)
	body, _ := json.Marshal(ColorRequest{Mapping: spec, Node: &NodeRef{Index: 2, Level: 2}})

	// Fill the admission limit with requests the gated worker cannot finish.
	statuses := make(chan int, maxInflight)
	var admitted sync.WaitGroup
	for i := 0; i < maxInflight; i++ {
		admitted.Add(1)
		go func() {
			defer admitted.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/color", "application/json", bytes.NewReader(body))
			if err != nil {
				statuses <- -1
				return
			}
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
	}
	// Wait until all four are admitted (inflight gauge reaches the limit).
	deadline := time.Now().Add(5 * time.Second)
	for srv.met.inflight.Load() < maxInflight {
		if time.Now().After(deadline) {
			t.Fatal("inflight never reached the admission limit")
		}
		time.Sleep(time.Millisecond)
	}

	// The saturated server must shed further load with 429 + Retry-After.
	resp, err := ts.Client().Post(ts.URL+"/v1/color", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// Releasing the worker completes every admitted request.
	close(gate)
	admitted.Wait()
	close(statuses)
	for status := range statuses {
		if status != http.StatusOK {
			t.Errorf("admitted request finished with %d, want 200", status)
		}
	}
	if rej := srv.met.rejected429.Load(); rej < 1 {
		t.Errorf("rejected_429 = %d, want ≥ 1", rej)
	}
}

// TestGracefulShutdownDrains verifies that Shutdown completes every
// accepted request while refusing new ones: with batching off (one task
// per lookup), and with batching on, where the admitted lookups sit in
// one open, already queued group when Shutdown starts.
func TestGracefulShutdownDrains(t *testing.T) {
	for _, maxBatch := range []int{1, 64} {
		t.Run(fmt.Sprintf("max_batch=%d", maxBatch), func(t *testing.T) {
			testGracefulShutdownDrains(t, maxBatch)
		})
	}
}

func testGracefulShutdownDrains(t *testing.T, maxBatch int) {
	gate := make(chan struct{})
	srv := New(Config{
		Workers:     2,
		MaxInflight: 8,
		MaxBatch:    maxBatch,
		Addr:        "127.0.0.1:0",
		workerHook:  func() { <-gate },
	})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	url := "http://" + srv.Addr() + "/v1/color"
	spec := modSpec(10, 3)
	body, _ := json.Marshal(ColorRequest{Mapping: spec, Node: &NodeRef{Index: 1, Level: 1}})

	const accepted = 4
	statuses := make(chan int, accepted)
	var wg sync.WaitGroup
	for i := 0; i < accepted; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				statuses <- -1
				return
			}
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.met.inflight.Load() < accepted {
		if time.Now().After(deadline) {
			t.Fatal("requests were not admitted in time")
		}
		time.Sleep(time.Millisecond)
	}
	if maxBatch > 1 {
		waitOpenJobs(t, srv.coal, spec, accepted)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// Draining: give Shutdown a moment to set the flag, then release the
	// workers so the accepted requests can finish.
	for !srv.draining.Load() {
		time.Sleep(time.Millisecond)
	}
	close(gate)

	wg.Wait()
	close(statuses)
	for status := range statuses {
		if status != http.StatusOK {
			t.Errorf("accepted request finished with %d, want 200", status)
		}
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("shutdown: %v", err)
	}

	// The listener is closed: new requests must fail.
	if _, err := http.Post(url, "application/json", bytes.NewReader(body)); err == nil {
		t.Error("request after shutdown unexpectedly succeeded")
	}
}

// TestHealthAndPprof checks the operational routes: /metrics counts a
// served lookup, /healthz and the pprof index answer, and the retired
// JSON counter document at /debug/vars answers 404.
func TestHealthAndPprof(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if status := post(t, ts.Client(), ts.URL+"/v1/color", ColorRequest{
		Mapping: modSpec(8, 3), Node: &NodeRef{Index: 0, Level: 0},
	}, nil); status != http.StatusOK {
		t.Fatalf("color status %d", status)
	}

	_, sc := scrapeMetrics(t, srv.Handler())
	if v, ok := sc.Value("pmsd_endpoint_requests_total", dm.Label{Name: "endpoint", Value: "color"}); !ok || v != 1 {
		t.Errorf("color requests = %v (present %v), want 1", v, ok)
	}
	if v, ok := sc.Value("pmsd_registry_misses_total"); !ok || v != 1 {
		t.Errorf("registry misses = %v (present %v), want 1", v, ok)
	}

	vr, err := ts.Client().Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	vr.Body.Close()
	if vr.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/vars status %d, want 404", vr.StatusCode)
	}

	hr, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", hr.StatusCode)
	}

	pr, err := ts.Client().Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Body.Close()
	if pr.StatusCode != http.StatusOK {
		t.Errorf("pprof index status %d", pr.StatusCode)
	}
}

// TestEndpointsStampAndCountTheir400s sends each /v1 endpoint, under a
// controller override, a request whose mapping validates but that fails
// one of the endpoint's own checks, then the same request with an
// invalid mapping. The first must answer 400 with X-Effective-Mapping
// and a flight event carrying the requested key, the effective key and
// the endpoint's name; the second carries neither the header nor the
// requested key. Each endpoint must then count both requests as its own
// 4xx, on /metrics and in the flight recorder's metric frame.
func TestEndpointsStampAndCountTheir400s(t *testing.T) {
	srv := New(Config{flightManual: true})
	defer shutdownServer(t, srv)
	ts := httptest.NewServer(srv.httpSrv.Handler)
	defer ts.Close()

	requested := modSpec(10, 7)
	effective := MappingSpec{Alg: "color", Levels: 10, M: 3}
	srv.reg.SetOverride(requested.Key(), effective)
	invalid := modSpec(10, 0)
	parts := []InstanceRef{{Kind: "S", Anchor: NodeRef{Index: 0, Level: 0}, Size: 1}}
	cases := []struct {
		name, path string
		body       func(MappingSpec) any
	}{
		{"color", "/v1/color", func(sp MappingSpec) any { return ColorRequest{Mapping: sp} }},
		{"template_cost", "/v1/template-cost", func(sp MappingSpec) any {
			return TemplateCostRequest{Mapping: sp, Kind: "S", Parts: parts}
		}},
		{"simulate", "/v1/simulate", func(sp MappingSpec) any { return SimulateRequest{Mapping: sp} }},
		{"heap_run", "/v1/heap/run", func(sp MappingSpec) any { return HeapRunRequest{Mapping: sp} }},
		{"heap_workload", "/v1/heap/workload", func(sp MappingSpec) any { return HeapWorkloadRequest{Mapping: sp} }},
		{"range_query", "/v1/range", func(sp MappingSpec) any { return RangeRequest{Mapping: sp} }},
	}
	for _, tc := range cases {
		status, hdr := postWithHeader(t, ts, tc.path, tc.body(requested), nil)
		if status != http.StatusBadRequest || hdr != effective.Key() {
			t.Errorf("%s, valid mapping: status %d, %s %q, want 400 and %q",
				tc.name, status, EffectiveMappingHeader, hdr, effective.Key())
		}
		status, hdr = postWithHeader(t, ts, tc.path, tc.body(invalid), nil)
		if status != http.StatusBadRequest || hdr != "" {
			t.Errorf("%s, invalid mapping: status %d, %s %q, want 400 and no header",
				tc.name, status, EffectiveMappingHeader, hdr)
		}
	}

	events := srv.fr.EventsSnapshot()
	if len(events) != 2*len(cases) {
		t.Fatalf("%d flight events, want %d", len(events), 2*len(cases))
	}
	for i, tc := range cases {
		stamped, unstamped := events[2*i], events[2*i+1]
		if stamped.Endpoint != tc.name || stamped.Status != http.StatusBadRequest ||
			stamped.Requested != requested.Key() || stamped.Effective != effective.Key() {
			t.Errorf("%s, valid mapping: event %+v", tc.name, stamped)
		}
		if unstamped.Endpoint != tc.name || unstamped.Status != http.StatusBadRequest ||
			unstamped.Requested != "" || unstamped.Effective != "" {
			t.Errorf("%s, invalid mapping: event %+v", tc.name, unstamped)
		}
	}

	_, sc := scrapeMetrics(t, srv.Handler())
	frame := srv.metricFrame()
	for _, tc := range cases {
		lbl := dm.Label{Name: "endpoint", Value: tc.name}
		for _, series := range []string{"pmsd_endpoint_requests_total", "pmsd_endpoint_errors_4xx_total"} {
			if v, ok := sc.Value(series, lbl); !ok || v != 2 {
				t.Errorf("%s{endpoint=%q} = %v (present %v), want 2", series, tc.name, v, ok)
			}
		}
		if ef := frame.Endpoints[tc.name]; ef.Requests != 2 || ef.Errors4xx != 2 {
			t.Errorf("metric frame endpoint %q = %+v, want 2 requests, 2 4xx", tc.name, ef)
		}
	}
}

func TestDecodeRejectsMalformedBodies(t *testing.T) {
	ts := httptest.NewServer(New(Config{MaxBodyBytes: 1 << 12}).Handler())
	defer ts.Close()

	cases := []struct {
		name string
		body string
		want int
	}{
		{"empty", "", http.StatusBadRequest},
		{"not json", "hello", http.StatusBadRequest},
		{"unknown field", `{"mapping":{"alg":"mod","levels":5,"modules":3},"nodee":{}}`, http.StatusBadRequest},
		{"overflow index", `{"mapping":{"alg":"mod","levels":5,"modules":3},"node":{"index":99999999999999999999999999,"level":1}}`, http.StatusBadRequest},
		{"trailing garbage", `{"mapping":{"alg":"mod","levels":5,"modules":3},"node":{"index":0,"level":0}} extra`, http.StatusBadRequest},
		{"huge body", `{"mapping":{"alg":"mod","levels":5,"modules":3},"node":{"index":0,"level":0},"pad":"` + strings.Repeat("x", 1<<13) + `"}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp, err := ts.Client().Post(ts.URL+"/v1/color", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// readmeExample matches the README's `curl -s localhost:8080/v1/... -d '...'`
// request examples, whose bodies may span lines.
var readmeExample = regexp.MustCompile(`curl -s localhost:8080(/v1/\S+) -d '([^']*)'`)

// TestREADMEExamples posts every /v1 request example in README.md to a
// default server and requires each to succeed, so the documented
// requests cannot drift from the API.
func TestREADMEExamples(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	examples := readmeExample.FindAllStringSubmatch(string(readme), -1)
	if len(examples) < 8 {
		t.Fatalf("found %d README request examples, want at least 8", len(examples))
	}
	h := New(Config{}).Handler()
	for _, ex := range examples {
		path, body := ex[1], ex[2]
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rr.Code != http.StatusOK {
			t.Errorf("POST %s %s: status %d: %s", path, body, rr.Code, rr.Body)
		}
	}
}
