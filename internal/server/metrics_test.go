package server

import (
	"testing"
	"time"

	"repro/internal/obsv"
)

// TestHistogramSnapshotAggregates checks count/sum/mean across several
// observations and that empty histograms omit buckets entirely. The
// bucket boundaries and labels themselves are pinned in obsv.
func TestHistogramSnapshotAggregates(t *testing.T) {
	var h obsv.Histogram
	if snap := histSnapshot(h.Load()); snap.Count != 0 || snap.Buckets != nil {
		t.Errorf("empty snapshot = %+v, want zero with nil buckets", snap)
	}
	for _, v := range []int64{1, 1, 3, 1000} {
		h.Observe(v)
	}
	snap := histSnapshot(h.Load())
	if snap.Count != 4 || snap.Sum != 1005 {
		t.Errorf("count/sum = %d/%d, want 4/1005", snap.Count, snap.Sum)
	}
	if want := 1005.0 / 4; snap.Mean != want {
		t.Errorf("mean = %g, want %g", snap.Mean, want)
	}
	if snap.Buckets["1"] != 2 || snap.Buckets["3"] != 1 || snap.Buckets["1023"] != 1 {
		t.Errorf("buckets = %v", snap.Buckets)
	}
}

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
	out, ok := c.enqueue(modSpec(8, 3), NodeRef{Index: 0, Level: 0}.Node(), nil)
	if !ok {
		t.Fatal("enqueue refused before shutdown")
	}
	res := <-out
	if res.err != errOverloaded {
		t.Fatalf("job error = %v, want errOverloaded", res.err)
	}
	snap := met.Snapshot()
	if snap.BatchesRejected != 1 {
		t.Errorf("batches_rejected = %d, want 1", snap.BatchesRejected)
	}
	if snap.Rejected429 != 1 {
		t.Errorf("rejected_429 = %d, want 1 (the rejected batch carried 1 job)", snap.Rejected429)
	}
	if snap.BatchesFlushed != 0 {
		t.Errorf("batches_flushed = %d, want 0", snap.BatchesFlushed)
	}
}
