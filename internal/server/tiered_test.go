// Tiered-cache tests: the registry with a mapstore disk tier attached.
// The PR 3 eviction hammer re-runs with spills enabled (every eviction
// now writes), a differential test pins disk-loaded mappings against a
// freshly materialized oracle node for node, and the warm-start path is
// proven to serve pre-admitted specs without a single materialization.
package server

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/coloring"
	"repro/internal/mapstore"
	dm "repro/internal/metrics"
	"repro/internal/testutil"
	"repro/internal/tree"
)

func openStore(t *testing.T, dir string) *mapstore.Store {
	t.Helper()
	st, err := mapstore.Open(mapstore.Options{Dir: dir})
	if err != nil {
		t.Fatalf("mapstore.Open: %v", err)
	}
	return st
}

// randomSpec is a spillable spec (the random baseline materializes a
// dense ArrayMapping) whose key varies with the seed.
func randomSpec(levels, modules int, seed int64) MappingSpec {
	return MappingSpec{Alg: "random", Levels: levels, Modules: modules, Seed: seed}
}

// TestTieredEvictionRaceHammerWithStore is the PR 3 registry hammer with
// the disk tier attached and spillable specs: a 1-byte budget makes
// every completed build evict (and now spill) its shard neighbors while
// concurrent requests race re-admissions against those evictions. The
// hammer must finish without panics or goroutine leaks, shard byte
// accounting must stay exact, and every eviction must be accounted as a
// spill or a counted drop.
func TestTieredEvictionRaceHammerWithStore(t *testing.T) {
	defer testutil.CheckGoroutines(t)()

	store := openStore(t, t.TempDir())
	srv := New(Config{Workers: 4, MaxInflight: 1024, CacheBudgetBytes: 1, Store: store})
	ts := httptest.NewServer(srv.Handler())

	const (
		hammerers = 16
		iters     = 30
		specs     = 12 // distinct cache keys in rotation
	)
	var wg sync.WaitGroup
	for g := 0; g < hammerers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				spec := randomSpec(8, 5, int64((g*iters+i)%specs))
				var resp ColorResponse
				status := post(t, ts.Client(), ts.URL+"/v1/color", ColorRequest{
					Mapping: spec,
					Node:    &NodeRef{Index: int64(i % 4), Level: 2},
				}, &resp)
				if status != 200 && status != 429 {
					t.Errorf("hammerer %d iter %d: status %d", g, i, status)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Registry invariants from the PR 3 hammer still hold with spills.
	var total int64
	for i := range srv.reg.shards {
		sh := &srv.reg.shards[i]
		sh.mu.Lock()
		var sum int64
		for _, e := range sh.items {
			if !e.done() {
				t.Errorf("shard %d: entry %q still in flight after the hammer drained", i, e.key)
			}
			sum += e.bytes
		}
		if sum != sh.bytes {
			t.Errorf("shard %d: byte counter %d but entries sum to %d", i, sh.bytes, sum)
		}
		total += sh.bytes
		sh.mu.Unlock()
	}
	if got := srv.met.registryBytes.Load(); got != total {
		t.Errorf("metrics registryBytes = %d, registry holds %d", got, total)
	}

	evictions := srv.met.registryEvictions.Load()
	if evictions == 0 {
		t.Fatal("hammer produced no evictions — the spill path was not exercised")
	}

	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// After shutdown the spill queue is drained: every eviction either
	// landed on disk or was dropped under backpressure, and both sides of
	// that split are counted. (Spills can exceed evictions: the final
	// FlushToStore persists resident entries too, and Put de-dups.)
	st := store.Stats()
	if st.Spills == 0 {
		t.Fatalf("no spills recorded across %d evictions: %+v", evictions, st)
	}
	if st.Entries == 0 {
		t.Fatalf("store empty after hammer + flush: %+v", st)
	}
}

// TestDiskLoadedMappingMatchesFreshOracle is the differential check: for
// every storable kind, the mapping that comes back from the disk tier
// must agree with a freshly materialized build on every node of the
// tree, through the batch kernel.
func TestDiskLoadedMappingMatchesFreshOracle(t *testing.T) {
	specs := []MappingSpec{
		{Alg: "random", Levels: 10, Modules: 7, Seed: 42},
		{Alg: "color", Levels: 12, M: 3},
		{Alg: "labeltree", Levels: 12, Modules: 12},
	}
	dir := t.TempDir()

	// Phase 1: materialize through a registry and flush to disk.
	store := openStore(t, dir)
	met := &Metrics{}
	reg := NewRegistry(256<<20, met)
	reg.AttachStore(store)
	for _, sp := range specs {
		if _, err := reg.Acquire(sp); err != nil {
			t.Fatalf("Acquire(%s): %v", sp.Key(), err)
		}
	}
	if flushed := reg.FlushToStore(); flushed != len(specs) {
		t.Fatalf("FlushToStore = %d, want %d", flushed, len(specs))
	}
	if err := store.Close(); err != nil {
		t.Fatalf("store close: %v", err)
	}

	// Phase 2: a fresh process image — empty memory tier, same directory.
	store2 := openStore(t, dir)
	defer store2.Close()
	met2 := &Metrics{}
	reg2 := NewRegistry(256<<20, met2)
	reg2.AttachStore(store2)

	for _, sp := range specs {
		m, hit, err := reg2.AcquireInfo(sp)
		if err != nil {
			t.Fatalf("AcquireInfo(%s): %v", sp.Key(), err)
		}
		if hit {
			t.Fatalf("spec %s reported a memory hit on a cold registry", sp.Key())
		}
		oracle, _, err := sp.build()
		if err != nil {
			t.Fatalf("oracle build(%s): %v", sp.Key(), err)
		}
		nodes := make([]tree.Node, 0, oracle.Tree().Nodes())
		for h := int64(0); h < oracle.Tree().Nodes(); h++ {
			nodes = append(nodes, tree.FromHeapIndex(h))
		}
		got := make([]int, len(nodes))
		want := make([]int, len(nodes))
		coloring.ColorBatch(m, got, nodes)
		for i, n := range nodes {
			want[i] = oracle.Color(n)
		}
		for i := range nodes {
			if got[i] != want[i] {
				t.Fatalf("spec %s node %v: disk-loaded color %d, fresh oracle %d",
					sp.Key(), nodes[i], got[i], want[i])
			}
		}
	}
	if met2.registryAcquireDiskHits.Load() != int64(len(specs)) {
		t.Fatalf("disk hits = %d, want %d", met2.registryAcquireDiskHits.Load(), len(specs))
	}
	if met2.registryAcquireMaterializes.Load() != 0 {
		t.Fatalf("materializes = %d on an all-disk workload", met2.registryAcquireMaterializes.Load())
	}
}

// TestWarmStartServesWithoutMaterializing restarts a server against the
// same store directory and proves pre-admitted specs serve as memory
// hits: registry_acquire_materializes stays zero across real requests.
func TestWarmStartServesWithoutMaterializing(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	dir := t.TempDir()
	specs := []MappingSpec{
		randomSpec(10, 7, 1),
		{Alg: "color", Levels: 12, M: 3},
	}

	// Incarnation 1: serve traffic, then shut down gracefully (the
	// SIGTERM path), which flushes the memory tier to disk.
	srv1 := New(Config{Store: openStore(t, dir)})
	ts1 := httptest.NewServer(srv1.Handler())
	for _, sp := range specs {
		var resp ColorResponse
		if status := post(t, ts1.Client(), ts1.URL+"/v1/color", ColorRequest{
			Mapping: sp, Node: &NodeRef{Index: 0, Level: 0},
		}, &resp); status != 200 {
			t.Fatalf("spec %s: status %d", sp.Key(), status)
		}
	}
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown 1: %v", err)
	}

	// Incarnation 2: warm-start from the manifest's hottest keys.
	srv2 := New(Config{Store: openStore(t, dir)})
	if admitted := srv2.WarmStart(16); admitted != len(specs) {
		t.Fatalf("WarmStart admitted %d, want %d", admitted, len(specs))
	}
	ts2 := httptest.NewServer(srv2.Handler())
	for _, sp := range specs {
		var resp ColorResponse
		if status := post(t, ts2.Client(), ts2.URL+"/v1/color", ColorRequest{
			Mapping: sp, Node: &NodeRef{Index: 0, Level: 0},
		}, &resp); status != 200 {
			t.Fatalf("warm spec %s: status %d", sp.Key(), status)
		}
	}
	if got := srv2.met.registryAcquireMaterializes.Load(); got != 0 {
		t.Fatalf("registry_acquire_materializes = %d after warm start, want 0", got)
	}
	if got := srv2.met.registryAcquireHits.Load(); got != int64(len(specs)) {
		t.Fatalf("registry_acquire_hits = %d, want %d", got, len(specs))
	}
	ts2.Close()
	if err := srv2.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown 2: %v", err)
	}
}

// TestStoreLoadHistogramOnMetrics scrapes the populated disk-load
// histogram, which pmsbench's mapstore.load_us reads: after N disk
// loads, pmsd_store_load_ns counts N and its +Inf bucket holds all N.
func TestStoreLoadHistogramOnMetrics(t *testing.T) {
	dir := t.TempDir()
	specs := []MappingSpec{
		randomSpec(10, 7, 1),
		randomSpec(10, 7, 2),
		{Alg: "color", Levels: 12, M: 3},
	}

	// Materialize through a registry and flush to disk.
	store := openStore(t, dir)
	reg := NewRegistry(256<<20, &Metrics{})
	reg.AttachStore(store)
	for _, sp := range specs {
		if _, err := reg.Acquire(sp); err != nil {
			t.Fatalf("Acquire(%s): %v", sp.Key(), err)
		}
	}
	if flushed := reg.FlushToStore(); flushed != len(specs) {
		t.Fatalf("FlushToStore = %d, want %d", flushed, len(specs))
	}
	if err := store.Close(); err != nil {
		t.Fatalf("store close: %v", err)
	}

	// A server over the same directory loads each spec from disk on its
	// first request.
	srv := New(Config{Store: openStore(t, dir)})
	ts := httptest.NewServer(srv.Handler())
	for _, sp := range specs {
		if status := post(t, ts.Client(), ts.URL+"/v1/color", ColorRequest{
			Mapping: sp, Node: &NodeRef{Index: 0, Level: 0},
		}, nil); status != 200 {
			t.Fatalf("spec %s: status %d", sp.Key(), status)
		}
	}
	ts.Close()
	if got := srv.met.registryAcquireDiskHits.Load(); got != int64(len(specs)) {
		t.Fatalf("disk hits = %d, want %d", got, len(specs))
	}
	_, sc := scrapeMetrics(t, srv.Handler())
	want := float64(len(specs))
	if v, ok := sc.Value("pmsd_store_load_ns_count"); !ok || v != want {
		t.Errorf("pmsd_store_load_ns_count = %v (present %v), want %v", v, ok, want)
	}
	if v, ok := sc.Value("pmsd_store_load_ns_bucket", dm.Label{Name: "le", Value: "+Inf"}); !ok || v != want {
		t.Errorf(`pmsd_store_load_ns_bucket{le="+Inf"} = %v (present %v), want %v`, v, ok, want)
	}
	if v, ok := sc.Value("pmsd_store_load_ns_sum"); !ok || v <= 0 {
		t.Errorf("pmsd_store_load_ns_sum = %v (present %v), want > 0", v, ok)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
