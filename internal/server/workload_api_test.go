// Differential oracle tests for the workload endpoints: every counter a
// /v1/heap/* or /v1/range response reports must equal what the
// in-process simulator (heapsim.Run / rangequery.Run) computes for the
// same inputs on an independently materialized mapping. Also covers the
// per-tenant admission layer: fairness caps, the bounded tenant table,
// and a race hammer over concurrent multi-tenant traffic.
package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/colormap"
	"repro/internal/heapsim"
	"repro/internal/pms"
	"repro/internal/rangequery"
	"repro/internal/tree"
	"repro/internal/workload"
)

// oracleRange runs one range query in-process and converts it to the
// wire shape for field-by-field comparison.
func oracleRange(sys *pms.System, lo, hi int64) (RangeQueryResult, error) {
	qr, err := rangequery.Run(sys, lo, hi)
	if err != nil {
		return RangeQueryResult{}, err
	}
	return RangeQueryResult{
		Range:     qr.Range,
		Items:     qr.Items,
		Parts:     qr.Parts,
		Subtrees:  qr.Subtrees,
		Cycles:    qr.Cycles,
		Conflicts: qr.Conflicts,
	}, nil
}

// oracleSystem materializes the color mapping through the forward
// construction (Canonical + Color), independent of the server's
// registry/retriever path.
func oracleSystem(t *testing.T, levels, m int) *pms.System {
	t.Helper()
	p, err := colormap.Canonical(levels, m)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := colormap.Color(p)
	if err != nil {
		t.Fatal(err)
	}
	return pms.NewSystem(arr)
}

// checkHeapAgainstOracle replays ops on a fresh oracle system and
// compares every response field.
func checkHeapAgainstOracle(t *testing.T, resp HeapResponse, sys *pms.System, ops []heapsim.Op) {
	t.Helper()
	want, err := heapsim.Run(sys, ops)
	if err != nil {
		t.Fatal(err)
	}
	st := want.Stats
	if resp.Ops != want.Ops {
		t.Errorf("ops = %d, oracle %d", resp.Ops, want.Ops)
	}
	if resp.FinalLen != want.FinalLen {
		t.Errorf("final_len = %d, oracle %d", resp.FinalLen, want.FinalLen)
	}
	if resp.TotalCycles != want.TotalCycles {
		t.Errorf("total_cycles = %d, oracle %d", resp.TotalCycles, want.TotalCycles)
	}
	if resp.Requests != st.Requests {
		t.Errorf("requests = %d, oracle %d", resp.Requests, st.Requests)
	}
	if resp.Conflicts != st.Conflicts {
		t.Errorf("conflicts = %d, oracle %d", resp.Conflicts, st.Conflicts)
	}
	if got, want := resp.CyclesPerOp, want.CyclesPerOp(); got != want {
		t.Errorf("cycles_per_op = %v, oracle %v", got, want)
	}
	if got, want := resp.Utilization, st.Utilization(sys.Mapping().Modules()); got != want {
		t.Errorf("utilization = %v, oracle %v", got, want)
	}
}

func TestHeapRunMatchesOracle(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := MappingSpec{Alg: "color", Levels: 10, M: 3}
	wire := []HeapOpRef{
		{Op: "insert", Key: 50}, {Op: "insert", Key: 20}, {Op: "insert", Key: 90},
		{Op: "decrease-key", Key: 5, Slot: 2},
		{Op: "insert", Key: 70}, {Op: "delete-min"}, {Op: "delete-min"},
		{Op: "insert", Key: 10}, {Op: "delete-min"},
		{Op: "delete-min"}, {Op: "delete-min"}, {Op: "delete-min"}, // last two drain + no-op
	}
	var resp HeapResponse
	if status := post(t, ts.Client(), ts.URL+"/v1/heap/run", HeapRunRequest{Mapping: spec, Ops: wire}, &resp); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}

	ops := make([]heapsim.Op, len(wire))
	for i, hr := range wire {
		op, aerr := hr.op()
		if aerr != nil {
			t.Fatalf("op %d: %v", i, aerr)
		}
		ops[i] = op
	}
	checkHeapAgainstOracle(t, resp, oracleSystem(t, spec.Levels, spec.M), ops)

	// The run feeds the domain bound monitor; Theorem 4 must hold.
	_, checks, violations := srv.dom.Counters()
	if checks == 0 {
		t.Error("heap run performed no bound checks")
	}
	if violations != 0 {
		t.Errorf("bound violations = %d, want 0", violations)
	}
}

func TestHeapWorkloadMatchesOracle(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	spec := MappingSpec{Alg: "color", Levels: 12, M: 4}
	dists := map[string]workload.Distribution{
		"uniform": workload.Uniform, "zipf": workload.Zipf, "sequential": workload.Sequential,
	}
	for dist, wdist := range dists {
		req := HeapWorkloadRequest{Mapping: spec, N: 500, Dist: dist, Seed: 42}
		var resp HeapResponse
		if status := post(t, ts.Client(), ts.URL+"/v1/heap/workload", req, &resp); status != http.StatusOK {
			t.Fatalf("%s: status %d", dist, status)
		}

		// Regenerate the identical sequence client-side from the wire
		// parameters alone — the endpoint's determinism contract.
		space := tree.New(spec.Levels).Nodes()
		keys, err := workload.NewKeyStream(wdist, space, req.Seed)
		if err != nil {
			t.Fatal(err)
		}
		ops, err := workload.HeapOps(workload.DefaultHeapMix(), req.N, keys, req.Seed)
		if err != nil {
			t.Fatal(err)
		}
		checkHeapAgainstOracle(t, resp, oracleSystem(t, spec.Levels, spec.M), ops)
	}
}

// Both heap endpoints answer on the tallest tree the mapping validator
// accepts: a heap request costs memory in proportion to its ops, where
// sizing the keys to the tree asked for an 8 TiB block at 40 levels and
// killed the process.
func TestHeapOnFortyLevelTree(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	spec := modSpec(40, 7)
	oracle := func() *pms.System { return pms.NewSystem(baseline.Modulo(tree.New(spec.Levels), spec.Modules)) }
	run := HeapRunRequest{Mapping: spec, Ops: []HeapOpRef{
		{Op: "insert", Key: 9}, {Op: "insert", Key: 3}, {Op: "delete-min"},
	}}
	var runResp HeapResponse
	if status := post(t, ts.Client(), ts.URL+"/v1/heap/run", run, &runResp); status != http.StatusOK {
		t.Fatalf("heap/run: status %d", status)
	}
	ops := make([]heapsim.Op, len(run.Ops))
	for i, hr := range run.Ops {
		op, aerr := hr.op()
		if aerr != nil {
			t.Fatalf("op %d: %v", i, aerr)
		}
		ops[i] = op
	}
	checkHeapAgainstOracle(t, runResp, oracle(), ops)

	wl := HeapWorkloadRequest{Mapping: spec, N: 256, Seed: 1}
	var wlResp HeapResponse
	if status := post(t, ts.Client(), ts.URL+"/v1/heap/workload", wl, &wlResp); status != http.StatusOK {
		t.Fatalf("heap/workload: status %d", status)
	}
	keys, err := workload.NewKeyStream(workload.Zipf, tree.New(spec.Levels).Nodes(), wl.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if ops, err = workload.HeapOps(workload.DefaultHeapMix(), wl.N, keys, wl.Seed); err != nil {
		t.Fatal(err)
	}
	checkHeapAgainstOracle(t, wlResp, oracle(), ops)
	t.Logf("heap/run final_len %d, heap/workload ops %d", runResp.FinalLen, wlResp.Ops)
}

func TestRangeMatchesOracle(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	spec := MappingSpec{Alg: "color", Levels: 10, M: 3}
	ranges := [][2]int64{{0, 0}, {5, 40}, {100, 260}, {1000, 1022}, {0, 1022}}
	var resp RangeResponse
	if status := post(t, ts.Client(), ts.URL+"/v1/range", RangeRequest{Mapping: spec, Ranges: ranges}, &resp); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if len(resp.Results) != len(ranges) {
		t.Fatalf("got %d results, want %d", len(resp.Results), len(ranges))
	}

	sys := oracleSystem(t, spec.Levels, spec.M)
	var items, cycles, conflicts int64
	for i, rg := range ranges {
		want, err := oracleRange(sys, rg[0], rg[1])
		if err != nil {
			t.Fatal(err)
		}
		got := resp.Results[i]
		if got != want {
			t.Errorf("range %v: got %+v, oracle %+v", rg, got, want)
		}
		items += want.Items
		cycles += want.Cycles
		conflicts += int64(want.Conflicts)
	}
	if resp.TotalItems != items || resp.TotalCycles != cycles || resp.TotalConflicts != conflicts {
		t.Errorf("totals = (%d,%d,%d), oracle (%d,%d,%d)",
			resp.TotalItems, resp.TotalCycles, resp.TotalConflicts, items, cycles, conflicts)
	}
}

func TestWorkloadEndpointValidation(t *testing.T) {
	ts := httptest.NewServer(New(Config{MaxHeapOps: 4, MaxRangeQueries: 2, MaxSimItems: 100}).Handler())
	defer ts.Close()

	spec := MappingSpec{Alg: "color", Levels: 10, M: 3}
	cases := []struct {
		name string
		path string
		body any
	}{
		{"no ops", "/v1/heap/run", HeapRunRequest{Mapping: spec}},
		{"too many ops", "/v1/heap/run", HeapRunRequest{Mapping: spec, Ops: []HeapOpRef{
			{Op: "insert"}, {Op: "insert"}, {Op: "insert"}, {Op: "insert"}, {Op: "insert"}}}},
		{"bad op", "/v1/heap/run", HeapRunRequest{Mapping: spec, Ops: []HeapOpRef{{Op: "pop"}}}},
		{"negative slot", "/v1/heap/run", HeapRunRequest{Mapping: spec, Ops: []HeapOpRef{{Op: "decrease-key", Slot: -1}}}},
		{"bad mapping", "/v1/heap/run", HeapRunRequest{Mapping: MappingSpec{Alg: "nope"}, Ops: []HeapOpRef{{Op: "insert"}}}},
		{"n too small", "/v1/heap/workload", HeapWorkloadRequest{Mapping: spec}},
		{"n too large", "/v1/heap/workload", HeapWorkloadRequest{Mapping: spec, N: 5}},
		{"bad dist", "/v1/heap/workload", HeapWorkloadRequest{Mapping: spec, N: 2, Dist: "pareto"}},
		{"no ranges", "/v1/range", RangeRequest{Mapping: spec}},
		{"too many ranges", "/v1/range", RangeRequest{Mapping: spec, Ranges: [][2]int64{{0, 1}, {0, 1}, {0, 1}}}},
		{"inverted range", "/v1/range", RangeRequest{Mapping: spec, Ranges: [][2]int64{{5, 1}}}},
		{"range beyond tree", "/v1/range", RangeRequest{Mapping: spec, Ranges: [][2]int64{{0, 1 << 20}}}},
		{"items above cap", "/v1/range", RangeRequest{Mapping: spec, Ranges: [][2]int64{{0, 200}}}},
	}
	for _, tc := range cases {
		if status := post(t, ts.Client(), ts.URL+tc.path, tc.body, nil); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, status)
		}
	}
}

func TestTenantSanitize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", anonTenant},
		{"alpha", "alpha"},
		{"Tenant-7_x.y", "Tenant-7_x.y"},
		{"has space", overflowTenant},
		{"evil\"label", overflowTenant},
		{"unicode-é", overflowTenant},
		{"0123456789012345678901234567890123", overflowTenant}, // 34 chars
	}
	for _, tc := range cases {
		if got := sanitizeTenant(tc.in); got != tc.want {
			t.Errorf("sanitizeTenant(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestTenantTableBounded(t *testing.T) {
	tt := newTenantTable(3) // room for 2 named tenants + "other"
	a := tt.get("a")
	if tt.get("a") != a {
		t.Fatal("get not idempotent")
	}
	tt.get("b")
	c := tt.get("c") // table full: folds into "other"
	if c != tt.get(overflowTenant) {
		t.Error("overflow tenant not folded into the shared bucket")
	}
	if c == a {
		t.Error("overflow bucket aliased an existing tenant")
	}
	snap := tt.snapshot()
	if len(snap) != 3 {
		t.Fatalf("table grew to %d entries, want 3", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Tenant >= snap[i].Tenant {
			t.Fatalf("snapshot not sorted: %v", snap)
		}
	}
}

// TestTenantFairnessCap pins the admission semantics: one tenant at its
// inflight cap is shed with 429 while another tenant is still admitted,
// and the shed requests are attributed to the hot tenant.
func TestTenantFairnessCap(t *testing.T) {
	srv := New(Config{MaxInflight: 16, TenantMaxInflight: 2})

	req := func(tenant string) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/v1/color", nil)
		if tenant != "" {
			r.Header.Set(TenantHeader, tenant)
		}
		return r
	}

	rel1, aerr := srv.admit(req("hot"))
	if aerr != nil {
		t.Fatalf("first admit: %v", aerr)
	}
	rel2, aerr := srv.admit(req("hot"))
	if aerr != nil {
		t.Fatalf("second admit: %v", aerr)
	}
	if _, aerr = srv.admit(req("hot")); aerr == nil {
		t.Fatal("third admit above tenant cap succeeded")
	} else if aerr.status != http.StatusTooManyRequests {
		t.Fatalf("shed status = %d, want 429", aerr.status)
	}
	// A different tenant still gets in: the cap is per tenant.
	relCold, aerr := srv.admit(req("cold"))
	if aerr != nil {
		t.Fatalf("cold tenant blocked by hot tenant's cap: %v", aerr)
	}
	relCold()
	rel1()
	rel2()

	byName := map[string]TenantSnapshot{}
	for _, tn := range srv.met.tenants.snapshot() {
		byName[tn.Tenant] = tn
	}
	hot := byName["hot"]
	if hot.Requests != 3 || hot.Rejected != 1 || hot.Inflight != 0 {
		t.Errorf("hot = %+v, want requests=3 rejected=1 inflight=0", hot)
	}
	cold := byName["cold"]
	if cold.Requests != 1 || cold.Rejected != 0 || cold.Inflight != 0 {
		t.Errorf("cold = %+v, want requests=1 rejected=0 inflight=0", cold)
	}
}

// TestTenantAdmissionHammer races many tenants (more than the table cap)
// through admit/release over real HTTP and checks the books balance and
// no goroutines leak. Run with -race for the full effect.
func TestTenantAdmissionHammer(t *testing.T) {
	srv := New(Config{MaxTenants: 8, TenantMaxInflight: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	before := runtime.NumGoroutine()
	const workers = 16
	const perWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				body := fmt.Sprintf(`{"mapping":{"alg":"color","levels":8,"m":2},"node":{"index":%d,"level":3}}`, i%8)
				req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/color", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set("Content-Type", "application/json")
				// 12 distinct tenants against a table cap of 8: the tail
				// must fold into "other" under concurrent creation.
				req.Header.Set(TenantHeader, fmt.Sprintf("tenant-%02d", (id+i)%12))
				resp, err := ts.Client().Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()

	tenants := srv.met.tenants.snapshot()
	if len(tenants) > 8 {
		t.Errorf("tenant table grew to %d entries above cap 8", len(tenants))
	}
	var requests, inflight int64
	for _, tn := range tenants {
		requests += tn.Requests
		inflight += tn.Inflight
	}
	// Everything admitted was released and every request was accounted to
	// some tenant bucket.
	if requests != workers*perWorker {
		t.Errorf("tenant requests = %d, want %d", requests, workers*perWorker)
	}
	if inflight != 0 {
		t.Errorf("tenant inflight = %d after drain, want 0", inflight)
	}
	if n := srv.met.inflight.Load(); n != 0 {
		t.Errorf("global inflight = %d after drain, want 0", n)
	}

	// Goroutine-leak check: allow the handful of idle http keepalive
	// goroutines, but not one per request.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+10 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines grew from %d to %d", before, runtime.NumGoroutine())
}
