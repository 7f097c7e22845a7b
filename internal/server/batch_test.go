// Unit tests for the group-commit coalescer: a group is queued the moment
// it opens, it seals when a worker takes it (before the modeled access
// time) or when it reaches MaxBatch, and every lookup gets exactly one
// right answer under concurrent load.
package server

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/coloring"
	"repro/internal/obsv"
	"repro/internal/tree"
)

// heldCoalescer builds a coalescer over a one-worker pool whose worker the
// test hook holds on a task submitted before any lookup. release lets the
// worker go and waits until the pool has drained.
func heldCoalescer(t *testing.T, maxBatch int) (c *coalescer, p *pool, met *Metrics, release func()) {
	t.Helper()
	met = &Metrics{}
	gate := make(chan struct{})
	p = newPool(1, 16, 0, func() { <-gate })
	var once sync.Once
	release = func() {
		once.Do(func() {
			close(gate)
			p.close()
		})
	}
	t.Cleanup(release)
	if !p.trySubmit(func() {}) {
		t.Fatal("could not submit the worker-holding task")
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.depth() != 0 { // the worker took the holding task
		if time.Now().After(deadline) {
			t.Fatal("worker never started the holding task")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return newCoalescer(maxBatch, p, NewRegistry(1<<20, met), met), p, met, release
}

// checkAnswer receives one lookup's result and compares it with the
// mapping's own answer for the node.
func checkAnswer(t *testing.T, c *coalescer, spec MappingSpec, n tree.Node, out <-chan colorResult) {
	t.Helper()
	m, err := c.reg.Acquire(spec)
	if err != nil {
		t.Fatal(err)
	}
	res := <-out
	if res.err != nil || res.color != m.Color(n) || res.modules != m.Modules() {
		t.Errorf("node %v: got %+v, want color %d of %d modules", n, res, m.Color(n), m.Modules())
	}
}

// TestCoalescerQueuesGroupAtOnce checks that the first lookup for a key
// queues its group on the pool at once, with every worker busy, and that
// a second lookup joins that queued group instead of adding a task.
func TestCoalescerQueuesGroupAtOnce(t *testing.T) {
	c, p, met, release := heldCoalescer(t, 64)
	spec := modSpec(8, 3)
	nodes := []tree.Node{tree.V(0, 0), tree.V(5, 3)}

	first, ok := c.enqueue(spec, nodes[0], new(obsv.Record))
	if !ok {
		t.Fatal("enqueue refused before shutdown")
	}
	if d := p.depth(); d != 1 {
		t.Fatalf("queue depth after the first lookup = %d, want 1 (its group queued at once)", d)
	}
	second, _ := c.enqueue(spec, nodes[1], new(obsv.Record))
	if d := p.depth(); d != 1 {
		t.Fatalf("queue depth after the second lookup = %d, want 1 (it joins the queued group)", d)
	}
	if n := openJobs(c, spec); n != 2 {
		t.Fatalf("open group holds %d lookups, want 2", n)
	}

	release()
	checkAnswer(t, c, spec, nodes[0], first)
	checkAnswer(t, c, spec, nodes[1], second)
	if flushed, coalesced := met.batchesFlushed.Load(), met.coalescedJobs.Load(); flushed != 1 || coalesced != 2 {
		t.Errorf("batches_flushed = %d, coalesced_jobs = %d; want 1 and 2", flushed, coalesced)
	}
}

// TestCoalescerSealsAtMaxBatch queues ten lookups behind a held worker
// with MaxBatch 4: a full group seals and the next lookup opens a new
// one, so they flush as 4+4+2.
func TestCoalescerSealsAtMaxBatch(t *testing.T) {
	c, p, met, release := heldCoalescer(t, 4)
	spec := modSpec(8, 3)
	outs := make([]<-chan colorResult, 10)
	for i := range outs {
		outs[i], _ = c.enqueue(spec, tree.V(int64(i), 4), new(obsv.Record))
	}
	if d := p.depth(); d != 3 {
		t.Fatalf("queue depth = %d, want 3 groups", d)
	}
	if n := openJobs(c, spec); n != 2 {
		t.Fatalf("the open group holds %d lookups, want 2 (two full groups sealed)", n)
	}

	release()
	for i, out := range outs {
		checkAnswer(t, c, spec, tree.V(int64(i), 4), out)
	}
	flushed, coalesced := met.batchesFlushed.Load(), met.coalescedJobs.Load()
	_, sizeSum, _ := met.batchSize.Load()
	if flushed != 3 || sizeSum != 10 || coalesced != 10 {
		t.Errorf("batches_flushed = %d, batch_size sum = %d, coalesced_jobs = %d; want 3, 10, 10",
			flushed, sizeSum, coalesced)
	}
}

// TestCoalescerSealsBeforeModeledAccess checks that a worker seals its
// group before it sleeps the modeled access time, so a lookup arriving
// during that sleep opens a new group rather than riding along.
func TestCoalescerSealsBeforeModeledAccess(t *testing.T) {
	const access = 300 * time.Millisecond
	met := &Metrics{}
	p := newPool(1, 16, access, nil)
	defer p.close()
	c := newCoalescer(64, p, NewRegistry(1<<20, met), met)
	spec := modSpec(8, 3)
	nodes := []tree.Node{tree.V(0, 0), tree.V(1, 1)}

	first, _ := c.enqueue(spec, nodes[0], new(obsv.Record))
	// The worker seals within microseconds of taking the group; a group
	// still open after half the access time is being held open by it.
	deadline := time.Now().Add(access / 2)
	for openJobs(c, spec) != 0 || p.depth() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("group still open while its worker sleeps the modeled access")
		}
		time.Sleep(100 * time.Microsecond)
	}
	second, _ := c.enqueue(spec, nodes[1], new(obsv.Record))
	if n := openJobs(c, spec); n != 1 {
		t.Fatalf("a lookup during the modeled access: open group holds %d, want 1 (a new group)", n)
	}
	if d := p.depth(); d != 1 {
		t.Fatalf("queue depth = %d, want 1 (the new group queued)", d)
	}

	checkAnswer(t, c, spec, nodes[0], first)
	checkAnswer(t, c, spec, nodes[1], second)
	if flushed, coalesced := met.batchesFlushed.Load(), met.coalescedJobs.Load(); flushed != 2 || coalesced != 0 {
		t.Errorf("batches_flushed = %d, coalesced_jobs = %d; want 2 and 0", flushed, coalesced)
	}
}

// TestCoalescerConcurrentLookupsAnsweredOnce hammers the coalescer from
// 32 goroutines over 3 specs with 2 workers and MaxBatch 5: every lookup
// gets exactly one answer, equal to Mapping.Color, and the batch_size
// histogram accounts every lookup once.
func TestCoalescerConcurrentLookupsAnsweredOnce(t *testing.T) {
	const goroutines, perGoroutine = 32, 200
	met := &Metrics{}
	reg := NewRegistry(8<<20, met)
	p := newPool(2, goroutines, 0, nil)
	c := newCoalescer(5, p, reg, met)
	specs := []MappingSpec{modSpec(10, 3), modSpec(12, 5), {Alg: "color", Levels: 12, M: 3}}
	maps := make([]coloring.Mapping, len(specs))
	for i, spec := range specs {
		m, err := reg.Acquire(spec)
		if err != nil {
			t.Fatal(err)
		}
		maps[i] = m
	}

	outs := make([][]<-chan colorResult, goroutines)
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				k := (g + i) % len(specs)
				n := tree.FromHeapIndex(int64((g*perGoroutine + i) * 7 % 1023))
				out, ok := c.enqueue(specs[k], n, new(obsv.Record))
				if !ok {
					errs <- fmt.Errorf("goroutine %d: enqueue refused", g)
					return
				}
				res := <-out
				if res.err != nil || res.color != maps[k].Color(n) || res.modules != maps[k].Modules() {
					errs <- fmt.Errorf("goroutine %d: %s node %v: got %+v, want color %d",
						g, specs[k].Key(), n, res, maps[k].Color(n))
					return
				}
				outs[g] = append(outs[g], out)
			}
		}(g)
	}
	wg.Wait()
	p.close()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, chans := range outs {
		for _, out := range chans {
			if len(out) != 0 {
				t.Fatal("a lookup was answered twice")
			}
		}
	}
	if _, sizeSum, _ := met.batchSize.Load(); sizeSum != goroutines*perGoroutine {
		t.Errorf("batch_size sum = %d, want %d lookups", sizeSum, goroutines*perGoroutine)
	}
	if rejected := met.batchesRejected.Load(); rejected != 0 {
		t.Errorf("batches_rejected = %d, want 0", rejected)
	}
}

// TestCoalescerAcquireFailureCountsNoBatch checks that a coalesced group
// whose registry acquire fails answers every job with the error and, like
// an explicit nodes batch, counts nothing: no flushed batch, no batch_size
// observation and no coalesced jobs, since nothing was colored.
func TestCoalescerAcquireFailureCountsNoBatch(t *testing.T) {
	c, p, met, release := heldCoalescer(t, 64)
	spec := MappingSpec{Alg: "zzz", Levels: 8, Modules: 3} // unknown alg: the build fails
	outs := make([]<-chan colorResult, 3)
	for i := range outs {
		outs[i], _ = c.enqueue(spec, tree.V(int64(i), 3), new(obsv.Record))
	}
	if d, n := p.depth(), openJobs(c, spec); d != 1 || n != len(outs) {
		t.Fatalf("queue depth %d, open group %d lookups; want 1 group of %d", d, n, len(outs))
	}

	release()
	for i, out := range outs {
		if res := <-out; res.err == nil {
			t.Errorf("lookup %d: got %+v, want the acquire error", i, res)
		}
	}
	flushed, coalesced := met.batchesFlushed.Load(), met.coalescedJobs.Load()
	_, sizeSum, _ := met.batchSize.Load()
	if flushed != 0 || sizeSum != 0 || coalesced != 0 {
		t.Errorf("batches_flushed = %d, batch_size sum = %d, coalesced_jobs = %d; want 0, 0, 0",
			flushed, sizeSum, coalesced)
	}
}
