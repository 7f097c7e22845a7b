package server

import (
	"testing"
	"time"

	"repro/internal/obsv"
)

// TestCoalescerOverloadRecordsRejection fills the worker pool queue and
// proves an overloaded batch is visible in metrics: one batches_rejected
// tick plus one rejected_429 tick per failed job. Before this counter
// existed, overload-rejected batches vanished from every counter.
func TestCoalescerOverloadRecordsRejection(t *testing.T) {
	met := &Metrics{}
	reg := NewRegistry(1<<20, met)
	gate := make(chan struct{})
	// One worker over a queue of depth 1: occupy the worker, fill the
	// queue, and the next submission must be rejected.
	p := newPool(1, 1, 0, func() { <-gate })
	defer func() {
		close(gate)
		p.close()
	}()
	if !p.trySubmit(func() {}) {
		t.Fatal("could not submit the worker-occupying task")
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.depth() != 0 { // worker picked the blocker up
		if time.Now().After(deadline) {
			t.Fatal("worker never started the blocking task")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if !p.trySubmit(func() {}) {
		t.Fatal("could not fill the queue slot")
	}

	// A new group is queued as soon as it opens, so enqueue hits the
	// full queue.
	c := newCoalescer(1, p, reg, met)
	out, ok := c.enqueue(modSpec(8, 3), NodeRef{Index: 0, Level: 0}.Node(), new(obsv.Record))
	if !ok {
		t.Fatal("enqueue refused before shutdown")
	}
	res := <-out
	if res.err != errOverloaded {
		t.Fatalf("job error = %v, want errOverloaded", res.err)
	}
	if n := met.batchesRejected.Load(); n != 1 {
		t.Errorf("batches_rejected = %d, want 1", n)
	}
	if n := met.rejected429.Load(); n != 1 {
		t.Errorf("rejected_429 = %d, want 1 (the rejected batch carried 1 job)", n)
	}
	if n := met.batchesFlushed.Load(); n != 0 {
		t.Errorf("batches_flushed = %d, want 0", n)
	}
}
