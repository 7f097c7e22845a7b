// End-to-end controller tests: migration under S-heavy traffic on a
// live server, the X-Effective-Mapping redirect header, the bound
// monitor staying clean across the switch, and the persisted decision
// surviving a warm restart without re-materialization.
package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	ctl "repro/internal/controller"
	"repro/internal/flightrec"
	"repro/internal/mapstore"
	"repro/internal/testutil"
)

// controllerTestConfig parks the wall-clock loop (ticks are driven
// synchronously) and opens every policy gate the traffic can earn.
func controllerTestConfig() Config {
	return Config{
		Workers:              2,
		Controller:           true,
		ControllerInterval:   time.Hour,
		ControllerMinDwell:   time.Millisecond,
		ControllerMinSamples: 4,
		ShadowSampleRate:     1,
	}
}

// benchSpec is the phase-shift scenario's requested mapping: levelcyclic
// over the m=4 canonical module count, so COLOR is a candidate.
func controllerRequestedSpec() MappingSpec {
	return MappingSpec{Alg: "levelcyclic", Levels: 12, Modules: 15}
}

// postSubtrees posts n instance-mode S(7) template costs — the traffic
// shape levelcyclic loses on (3 conflicts each) and COLOR serves free.
func postSubtrees(t *testing.T, ts *httptest.Server, spec MappingSpec, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		var resp TemplateCostResponse
		req := TemplateCostRequest{
			Mapping: spec, Kind: "S", Size: 7,
			Anchor: &NodeRef{Index: int64(i % 8), Level: 3},
		}
		if status := post(t, ts.Client(), ts.URL+"/v1/template-cost", req, &resp); status != 200 {
			t.Fatalf("subtree request %d: status %d", i, status)
		}
	}
}

func TestControllerMigratesUnderSHeavyTraffic(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	srv := New(controllerTestConfig())
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		shutdownServer(t, srv)
	}()

	spec := controllerRequestedSpec()
	postSubtrees(t, ts, spec, 24)

	if n := srv.ControllerTick(time.Now()); n != 1 {
		t.Fatalf("tick migrated %d entries, want 1", n)
	}
	wantEffective := MappingSpec{Alg: "color", Levels: 12, M: 4}
	if got := srv.reg.Resolve(spec); got != wantEffective {
		t.Fatalf("Resolve(%s) = %s, want %s", spec.Key(), got.Key(), wantEffective.Key())
	}

	// Subsequent requests carry the redirect header and keep the bound
	// monitor clean: COLOR serves S(7) conflict-free (Theorem 3), and the
	// checks now run against the effective spec, not the requested one.
	var resp TemplateCostResponse
	for i := 0; i < 8; i++ {
		r := TemplateCostRequest{Mapping: spec, Kind: "S", Size: 7,
			Anchor: &NodeRef{Index: int64(i), Level: 3}}
		body, hdr := postWithHeader(t, ts, "/v1/template-cost", r, &resp)
		if body != 200 {
			t.Fatalf("post-migration request: status %d", body)
		}
		if hdr != wantEffective.Key() {
			t.Fatalf("%s = %q, want %q", EffectiveMappingHeader, hdr, wantEffective.Key())
		}
		if resp.Conflicts != 0 {
			t.Errorf("S(7) under COLOR cost %d conflicts, want 0", resp.Conflicts)
		}
	}

	if n := srv.met.controllerMigrations.Load(); n != 1 {
		t.Errorf("controller_migrations = %d, want 1", n)
	}
	decisions, evals := srv.met.controllerDecisions.Load(), srv.met.controllerShadowEvals.Load()
	if decisions < 1 || evals < 2 {
		t.Errorf("decisions %d / shadow evals %d — controller did not score", decisions, evals)
	}
	if _, _, v := srv.dom.Counters(); v != 0 {
		t.Errorf("%d bound violations across migration", v)
	}
	// The flight recorder's decision ring holds the migration itself.
	var migrations []flightrec.Decision
	for _, d := range srv.fr.DecisionsSnapshot() {
		if d.Spec == spec.Key() && d.Action == ctl.ActionMigrate {
			migrations = append(migrations, d)
		}
	}
	if len(migrations) != 1 || migrations[0].To != wantEffective.Key() {
		t.Errorf("migrate decisions for %s = %+v, want one to %s", spec.Key(), migrations, wantEffective.Key())
	}
}

// TestControllerNoFlipFlapAcrossTicks re-ticks the migrated entry under
// continuing traffic: once on COLOR (zero replayed conflicts) no score
// can beat it, so the entry must never flap back.
func TestControllerNoFlipFlapAcrossTicks(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	srv := New(controllerTestConfig())
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		shutdownServer(t, srv)
	}()

	spec := controllerRequestedSpec()
	postSubtrees(t, ts, spec, 16)
	now := time.Now()
	if n := srv.ControllerTick(now); n != 1 {
		t.Fatalf("first tick migrated %d, want 1", n)
	}
	for i := 0; i < 5; i++ {
		postSubtrees(t, ts, spec, 8)
		now = now.Add(time.Second) // dwell (1ms) long expired every tick
		if n := srv.ControllerTick(now); n != 0 {
			t.Fatalf("tick %d flip-flapped the entry", i)
		}
	}
	if got := srv.met.controllerMigrations.Load(); got != 1 {
		t.Errorf("controller_migrations = %d after re-ticks, want 1", got)
	}
}

// postWithHeader posts like post() but also returns the response's
// effective-mapping redirect header.
func postWithHeader(t *testing.T, ts *httptest.Server, path string, body any, out any) (int, string) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == 200 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp.StatusCode, resp.Header.Get(EffectiveMappingHeader)
}

func TestControllerDecisionSurvivesWarmRestart(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	dir := t.TempDir()
	st, err := mapstore.Open(mapstore.Options{Dir: dir})
	if err != nil {
		t.Fatalf("mapstore.Open: %v", err)
	}

	cfg := controllerTestConfig()
	cfg.Store = st
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())

	spec := controllerRequestedSpec()
	postSubtrees(t, ts, spec, 16)
	if n := srv.ControllerTick(time.Now()); n != 1 {
		t.Fatalf("migrated %d entries, want 1", n)
	}
	ts.Close()
	shutdownServer(t, srv) // flushes resident mappings and closes the store

	// Restart against the same directory: the persisted decision must
	// re-apply the override and the flushed COLOR artifact must serve
	// without a single re-materialization.
	st2, err := mapstore.Open(mapstore.Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	cfg2 := controllerTestConfig()
	cfg2.Store = st2
	srv2 := New(cfg2)
	if admitted := srv2.WarmStart(16); admitted == 0 {
		t.Fatal("warm start admitted nothing")
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer func() {
		ts2.Close()
		shutdownServer(t, srv2)
	}()

	wantEffective := MappingSpec{Alg: "color", Levels: 12, M: 4}
	if got := srv2.reg.Resolve(spec); got != wantEffective {
		t.Fatalf("restart Resolve(%s) = %s, want %s", spec.Key(), got.Key(), wantEffective.Key())
	}
	var resp TemplateCostResponse
	r := TemplateCostRequest{Mapping: spec, Kind: "S", Size: 7,
		Anchor: &NodeRef{Index: 3, Level: 3}}
	status, hdr := postWithHeader(t, ts2, "/v1/template-cost", r, &resp)
	if status != 200 || hdr != wantEffective.Key() {
		t.Fatalf("restart request: status %d, header %q", status, hdr)
	}
	if resp.Conflicts != 0 {
		t.Errorf("restart S(7) cost %d conflicts, want 0", resp.Conflicts)
	}
	if got := srv2.met.registryAcquireMaterializes.Load(); got != 0 {
		t.Errorf("restart re-materialized %d mappings, want 0", got)
	}
}

// specConflicts sums the family conflicts the domain layer attributed
// to spec, the mapping the requests named.
func specConflicts(t *testing.T, srv *Server, spec MappingSpec) int64 {
	t.Helper()
	if srv.dom == nil {
		t.Fatal("domain metrics disabled")
	}
	_, conf, _ := srv.dom.SpecCounters(spec.Key())
	var total int64
	for _, c := range conf {
		total += c
	}
	return total
}

// TestControllerBeatsStaticMappings runs the phase-shift scenario on the
// m=4 canonical sizes (K=7, N=11, M=15) against three servers: the
// controller fronting levelcyclic, static levelcyclic and static mod.
// The S phase posts 7-node subtrees and the P phase root-ward paths of
// at most 8 nodes; COLOR serves both conflict-free (Theorem 3), the two
// static mappings do not. Ticked between rounds, the controller must
// migrate to COLOR during the S phase and end with fewer conflicts than
// either static mapping, with the bound monitor at zero on all three
// servers.
func TestControllerBeatsStaticMappings(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	const rounds, perRound = 3, 40
	run := func(cfg Config, spec MappingSpec) *Server {
		srv := New(cfg)
		ts := httptest.NewServer(srv.Handler())
		defer func() {
			ts.Close()
			shutdownServer(t, srv)
		}()
		now := time.Now()
		for _, kind := range []string{"S", "P"} {
			for r := 0; r < rounds; r++ {
				for i := 0; i < perRound; i++ {
					j := r*perRound + i
					level, size := j%10, int64(7) // S(7) spans 3 of the 12 levels
					if kind == "P" {
						level = j % 12
						size = int64(min(level+1, 8))
					}
					req := TemplateCostRequest{Mapping: spec, Kind: kind, Size: size,
						Anchor: &NodeRef{Index: int64(j*7) % (1 << level), Level: level}}
					if status := post(t, ts.Client(), ts.URL+"/v1/template-cost", req, nil); status != 200 {
						t.Fatalf("%s %s request %d: status %d", spec.Key(), kind, j, status)
					}
				}
				now = now.Add(time.Second)
				srv.ControllerTick(now) // a no-op without the controller
			}
		}
		return srv
	}

	levelcyclic := controllerRequestedSpec()
	mod := MappingSpec{Alg: "mod", Levels: 12, Modules: 15}
	adaptive := run(controllerTestConfig(), levelcyclic)
	staticLC := run(Config{Workers: 2}, levelcyclic)
	staticMod := run(Config{Workers: 2}, mod)
	got := specConflicts(t, adaptive, levelcyclic)
	lc, md := specConflicts(t, staticLC, levelcyclic), specConflicts(t, staticMod, mod)
	t.Logf("conflicts: controller %d, levelcyclic %d, mod %d", got, lc, md)
	if adaptive.met.controllerMigrations.Load() < 1 {
		t.Error("controller never migrated")
	}
	if eff := adaptive.reg.Resolve(levelcyclic).Key(); eff != "color/H=12/m=4" {
		t.Errorf("controller ended on %s, want color/H=12/m=4", eff)
	}
	if got >= lc || got >= md {
		t.Errorf("controller conflicts %d, not below levelcyclic %d and mod %d", got, lc, md)
	}
	// Only COLOR has a theorem bound to check, so the checks come from
	// the controller's post-migration requests.
	if _, checks, _ := adaptive.dom.Counters(); checks == 0 {
		t.Error("no bound checks ran on the controller server")
	}
	for _, srv := range []*Server{adaptive, staticLC, staticMod} {
		if _, _, v := srv.dom.Counters(); v != 0 {
			t.Errorf("%d bound violations", v)
		}
	}
}
