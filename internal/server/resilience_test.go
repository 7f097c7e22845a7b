// Resilience tests for the serving layer itself: the graceful-drain
// path must not leak worker or listener goroutines, and the registry's
// LRU eviction must stay panic-free and account bytes exactly under a
// pathological 1-byte budget hammered by concurrent traffic.
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

// TestShutdownDrainsWithoutGoroutineLeak serves real HTTP traffic, shuts
// down, and verifies every goroutine the server started (worker pool,
// connection handlers) has exited.
func TestShutdownDrainsWithoutGoroutineLeak(t *testing.T) {
	defer testutil.CheckGoroutines(t)()

	srv := New(Config{Workers: 4, Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	transport := &http.Transport{}
	client := &http.Client{Transport: transport, Timeout: 5 * time.Second}

	url := "http://" + srv.Addr() + "/v1/color"
	for i := 0; i < 20; i++ {
		var resp ColorResponse
		status := post(t, client, url, ColorRequest{
			Mapping: modSpec(10, 7),
			Node:    &NodeRef{Index: int64(i % 8), Level: 3},
		}, &resp)
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, status)
		}
	}

	transport.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestRegistryEvictionRaceHammer pounds /v1/color with many distinct
// mapping specs against a 1-byte cache budget, so every build races an
// eviction of its neighbors. The hammer must finish without panics,
// every shard's byte counter must equal the sum of its surviving
// entries, and the cache must have come back down to at most one entry
// per shard once the traffic stops.
func TestRegistryEvictionRaceHammer(t *testing.T) {
	defer testutil.CheckGoroutines(t)()

	srv := New(Config{Workers: 4, MaxInflight: 1024, CacheBudgetBytes: 1})
	ts := httptest.NewServer(srv.Handler())

	const (
		hammerers = 16
		iters     = 40
		specs     = 24 // distinct cache keys in rotation
	)
	var wg sync.WaitGroup
	for g := 0; g < hammerers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				spec := modSpec(10, 3+(g*iters+i)%specs)
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

	// Per-shard accounting must be exact: the shard byte counter is the
	// sum of its live entries, with no residue from evicted ones.
	var total int64
	var entries int
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
		if len(sh.items) != sh.lru.Len() {
			t.Errorf("shard %d: %d map entries but %d LRU elements", i, len(sh.items), sh.lru.Len())
		}
		total += sh.bytes
		entries += len(sh.items)
		sh.mu.Unlock()
	}
	if got := srv.met.registryBytes.Load(); got != total {
		t.Errorf("metrics registryBytes = %d, registry holds %d", got, total)
	}
	// A 1-byte budget means every completed insert evicts all other done
	// entries in its shard: once quiet, at most one survivor per shard.
	if entries > registryShards {
		t.Errorf("%d cached entries after the hammer, want at most %d (one per shard)", entries, registryShards)
	}

	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestDrainRefusesNewWorkButFinishesAdmitted overlaps a shutdown with
// slow in-flight work: admitted requests must complete with 200 while
// new ones are refused, and nothing may leak.
func TestDrainRefusesNewWorkButFinishesAdmitted(t *testing.T) {
	defer testutil.CheckGoroutines(t)()

	gate := make(chan struct{})
	var once sync.Once
	srv := New(Config{
		Workers:    2,
		workerHook: func() { once.Do(func() { <-gate }) },
	})
	ts := httptest.NewServer(srv.Handler())

	done := make(chan int, 1)
	go func() {
		var resp ColorResponse
		done <- post(t, ts.Client(), ts.URL+"/v1/color", ColorRequest{
			Mapping: modSpec(10, 7),
			Node:    &NodeRef{Index: 0, Level: 0},
		}, &resp)
	}()

	// Wait until the slow request holds a worker, then start draining.
	deadline := time.Now().Add(2 * time.Second)
	for srv.met.inflight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("in-flight request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()

	// New work is refused while draining.
	for srv.draining.Load() == false {
		time.Sleep(time.Millisecond)
	}
	if status := post(t, ts.Client(), ts.URL+"/v1/color", ColorRequest{
		Mapping: modSpec(10, 7),
		Node:    &NodeRef{Index: 0, Level: 0},
	}, nil); status != http.StatusServiceUnavailable {
		t.Errorf("request during drain got %d, want 503", status)
	}

	close(gate) // release the admitted request
	if status := <-done; status != http.StatusOK {
		t.Errorf("admitted request finished with %d, want 200", status)
	}
	if err := <-shutdownErr; err != nil {
		t.Errorf("shutdown: %v", err)
	}
	ts.Close()
}
