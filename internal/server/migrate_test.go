// Registry migration tests: byte accounting across migrations (no
// transient double-count, no leak), override resolution, and the PR 3
// eviction hammer extended with a concurrent migrator so migrations race
// builds and evictions under a 1-byte budget.
package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil"
)

func lcSpec(levels, modules int) MappingSpec {
	return MappingSpec{Alg: "levelcyclic", Levels: levels, Modules: modules}
}

// assertRegistryAccounting checks the shard-level byte invariants: every
// shard's counter equals the sum of its live entries, the LRU mirrors
// the map, and the global counters agree.
func assertRegistryAccounting(t *testing.T, srv *Server) {
	t.Helper()
	var total int64
	for i := range srv.reg.shards {
		sh := &srv.reg.shards[i]
		sh.mu.Lock()
		var sum int64
		for _, e := range sh.items {
			if e.done() {
				sum += e.bytes
			}
		}
		if sum != sh.bytes {
			t.Errorf("shard %d: byte counter %d but entries sum to %d", i, sh.bytes, sum)
		}
		if len(sh.items) != sh.lru.Len() {
			t.Errorf("shard %d: %d map entries but %d LRU elements", i, len(sh.items), sh.lru.Len())
		}
		total += sh.bytes
		sh.mu.Unlock()
	}
	if got := srv.met.registryBytes.Load(); got != total {
		t.Errorf("metrics registryBytes = %d, registry holds %d", got, total)
	}
}

// residentEntries counts the registry's cached entries across shards.
func residentEntries(reg *Registry) int {
	n := 0
	for i := range reg.shards {
		sh := &reg.shards[i]
		sh.mu.Lock()
		n += len(sh.items)
		sh.mu.Unlock()
	}
	return n
}

// overrideCount is the size of the registry's redirect table.
func overrideCount(reg *Registry) int {
	reg.ovMu.RLock()
	defer reg.ovMu.RUnlock()
	return len(reg.overrides)
}

// TestMigrateByteAccounting walks one entry through migrate, re-migrate
// and migrate-back, asserting after every step that the retired artifact
// is uncharged exactly once and the redirect resolves to the new spec.
func TestMigrateByteAccounting(t *testing.T) {
	srv := New(Config{})
	defer shutdownServer(t, srv)

	a := modSpec(10, 7)
	if _, err := srv.reg.Acquire(a); err != nil {
		t.Fatal(err)
	}
	assertRegistryAccounting(t, srv)

	// A → B: A's entry retires, B's is admitted, the redirect flips.
	b := lcSpec(10, 7)
	if _, err := srv.reg.Migrate(a.Key(), b, nil); err != nil {
		t.Fatal(err)
	}
	if got := srv.reg.Resolve(a); got != b {
		t.Errorf("Resolve(%s) = %s, want %s", a.Key(), got.Key(), b.Key())
	}
	if residentEntries(srv.reg) != 1 {
		t.Errorf("%d resident entries after A→B, want 1 (A retired)", residentEntries(srv.reg))
	}
	assertRegistryAccounting(t, srv)

	// A → C with the override live: the artifact to retire is B's (the
	// current effective), not A's long-gone entry.
	c := MappingSpec{Alg: "color", Levels: 10, M: 3}
	if _, err := srv.reg.Migrate(a.Key(), c, nil); err != nil {
		t.Fatal(err)
	}
	if got := srv.reg.Resolve(a); got != c {
		t.Errorf("Resolve(%s) = %s, want %s", a.Key(), got.Key(), c.Key())
	}
	if residentEntries(srv.reg) != 1 {
		t.Errorf("%d resident entries after A→C, want 1 (B retired, no leak)", residentEntries(srv.reg))
	}
	assertRegistryAccounting(t, srv)

	// Migrate back to A: the override clears and C's artifact retires.
	if _, err := srv.reg.Migrate(a.Key(), a, nil); err != nil {
		t.Fatal(err)
	}
	if got := srv.reg.Resolve(a); got != a {
		t.Errorf("Resolve(%s) = %s after migrate-back, want itself", a.Key(), got.Key())
	}
	if n := overrideCount(srv.reg); n != 0 {
		t.Errorf("%d overrides after migrate-back, want 0", n)
	}
	assertRegistryAccounting(t, srv)
}

// TestMigrateRacingBuildHonorsSingleFlight migrates onto a key that is
// already resident: the resident entry wins, the prebuilt copy is
// returned uncached, and no bytes are double-charged.
func TestMigrateAlreadyResidentTarget(t *testing.T) {
	srv := New(Config{})
	defer shutdownServer(t, srv)

	a, b := modSpec(10, 7), lcSpec(10, 7)
	if _, err := srv.reg.Acquire(a); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.reg.Acquire(b); err != nil {
		t.Fatal(err)
	}
	before := residentEntries(srv.reg)
	if _, err := srv.reg.Migrate(a.Key(), b, nil); err != nil {
		t.Fatal(err)
	}
	if got := residentEntries(srv.reg); got != before-1 {
		t.Errorf("%d resident entries, want %d (A retired, B kept once)", got, before-1)
	}
	assertRegistryAccounting(t, srv)
}

// TestRegistryMigrationRaceHammer is the 1-byte-budget eviction hammer
// extended with a concurrent migrator: while clients pound /v1/color on
// a rotating spec set, a migrator flips one hot spec between mappings.
// No panics, exact byte accounting, and served responses stay valid.
func TestRegistryMigrationRaceHammer(t *testing.T) {
	defer testutil.CheckGoroutines(t)()

	srv := New(Config{Workers: 4, MaxInflight: 1024, CacheBudgetBytes: 1})
	ts := httptest.NewServer(srv.Handler())

	const (
		hammerers = 8
		iters     = 40
		specs     = 12
	)
	hot := modSpec(10, 7)
	targets := []MappingSpec{lcSpec(10, 7), MappingSpec{Alg: "color", Levels: 10, M: 3}, hot}

	stop := make(chan struct{})
	var migrator sync.WaitGroup
	migrator.Add(1)
	go func() {
		defer migrator.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := srv.reg.Migrate(hot.Key(), targets[i%len(targets)], nil); err != nil {
				t.Errorf("migrate %d: %v", i, err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < hammerers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				spec := hot
				if i%2 == 1 {
					spec = modSpec(10, 3+(g*iters+i)%specs)
				}
				var resp ColorResponse
				status := post(t, ts.Client(), ts.URL+"/v1/color", ColorRequest{
					Mapping: spec,
					Node:    &NodeRef{Index: int64(i % 4), Level: 2},
				}, &resp)
				if status != http.StatusOK && status != http.StatusTooManyRequests {
					t.Errorf("hammerer %d iter %d: status %d", g, i, status)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	migrator.Wait()

	assertRegistryAccounting(t, srv)
	if n := overrideCount(srv.reg); n > 1 {
		t.Errorf("%d overrides for one migrated key", n)
	}

	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
