package obsv

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSamplingRates(t *testing.T) {
	cases := []struct {
		name    string
		rate    float64
		starts  int
		sampled int64
	}{
		{"always", 1, 100, 100},
		{"above one clamps", 7, 100, 100},
		{"half", 0.5, 100, 50},
		{"hundredth", 0.01, 1000, 10},
		{"off", 0, 100, 0},
		{"negative off", -1, 100, 0},
	}
	for _, tc := range cases {
		tr := New(Config{SampleRate: tc.rate})
		var got int64
		for i := 0; i < tc.starts; i++ {
			if tr.Start(NewRequestID(), "color") != nil {
				got++
			}
		}
		if got != tc.sampled {
			t.Errorf("%s: sampled %d of %d, want %d", tc.name, got, tc.starts, tc.sampled)
		}
		if tc.rate <= 0 && tr.Enabled() {
			t.Errorf("%s: Enabled() = true, want false", tc.name)
		}
	}
}

func TestNilTraceIsFreeAndSafe(t *testing.T) {
	var tr *Trace
	tr.RecordSpan(StageBatchCompute, time.Now(), time.Millisecond)
	tr.StartSpan(StageAdmissionWait)()
	tr.SetClient(ClientInfo{Attempt: 2})
	tr.Finish(200)
	if tr.ID() != "" {
		t.Errorf("nil trace ID = %q, want empty", tr.ID())
	}
	var tc *Tracer
	if tc.Enabled() {
		t.Error("nil tracer Enabled() = true")
	}
	if tc.Start("x", "y") != nil {
		t.Error("nil tracer Start returned a trace")
	}
	_ = tc.Snapshot()
}

func TestSpansAndStageHistograms(t *testing.T) {
	tc := New(Config{SampleRate: 1})
	tr := tc.Start("req-1", "color")
	if tr == nil {
		t.Fatal("Start returned nil at rate 1")
	}
	base := time.Now()
	tr.RecordSpan(StageCoalesceWait, base, 500*time.Microsecond)
	tr.RecordSpan(StageAdmissionWait, base.Add(500*time.Microsecond), 100*time.Microsecond)
	tr.RecordSpan(StageRegistryMaterialize, base.Add(600*time.Microsecond), 3*time.Millisecond)
	end := tr.StartSpan(StageBatchCompute)
	end()
	tr.SetClient(ClientInfo{Attempt: 2, ElapsedUS: 1234, Hedge: true})
	tr.Finish(200)

	snap := tc.Snapshot()
	if snap.Sampled != 1 || snap.Finished != 1 {
		t.Fatalf("sampled/finished = %d/%d, want 1/1", snap.Sampled, snap.Finished)
	}
	for _, stage := range []string{"coalesce_wait", "admission_wait", "registry_acquire_materialize", "batch_compute", "total"} {
		if snap.Stages[stage].Count != 1 {
			t.Errorf("stage %s count = %d, want 1", stage, snap.Stages[stage].Count)
		}
	}
	if got := snap.Stages["coalesce_wait"].SumUS; got != 500 {
		t.Errorf("coalesce_wait sum = %dµs, want 500", got)
	}
	if len(snap.Slowest) != 1 {
		t.Fatalf("slowest holds %d traces, want 1", len(snap.Slowest))
	}
	got := snap.Slowest[0]
	if got.ID != "req-1" || got.Endpoint != "color" || got.Status != 200 {
		t.Errorf("trace header = %+v", got)
	}
	if got.Client == nil || got.Client.Attempt != 2 || !got.Client.Hedge {
		t.Errorf("client info = %+v, want attempt 2 hedge", got.Client)
	}
	if len(got.Spans) != 4 {
		t.Errorf("spans = %d, want 4", len(got.Spans))
	}

	// Spans after Finish are dropped from the trace and a second Finish
	// is a complete no-op.
	tr.RecordSpan(StageResponseWrite, time.Now(), time.Millisecond)
	tr.Finish(500)
	after := tc.Snapshot()
	if n := len(after.Slowest[0].Spans); n != 4 {
		t.Errorf("post-finish span leaked: %d spans", n)
	}
	if after.Finished != 1 || after.Stages["total"].Count != 1 {
		t.Errorf("double Finish recorded: finished=%d total.count=%d, want 1/1",
			after.Finished, after.Stages["total"].Count)
	}
}

func TestSlowBufferKeepsSlowestN(t *testing.T) {
	b := slowBuffer{capacity: 4}
	b.min.Store(-1 << 62)
	for _, us := range []int64{10, 500, 20, 300, 40, 900, 5, 350} {
		b.offer(TraceSnapshot{ID: "t", TotalUS: us})
	}
	got := b.snapshot()
	want := []int64{900, 500, 350, 300}
	if len(got) != len(want) {
		t.Fatalf("kept %d traces, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].TotalUS != w {
			t.Errorf("slowest[%d] = %dµs, want %d (full: %+v)", i, got[i].TotalUS, w, got)
		}
	}
	// The floor now rejects anything at or below the kept minimum.
	b.offer(TraceSnapshot{TotalUS: 300})
	if n := len(b.snapshot()); n != 4 {
		t.Errorf("buffer grew to %d", n)
	}
}

func TestRequestIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewRequestID()
		if seen[id] {
			t.Fatalf("duplicate request ID %q", id)
		}
		seen[id] = true
		if !strings.Contains(id, "-") {
			t.Fatalf("malformed request ID %q", id)
		}
	}
}

// TestConcurrentRecording exercises the cross-goroutine span path (a
// batch worker recording on behalf of many requests) under -race.
func TestConcurrentRecording(t *testing.T) {
	tc := New(Config{SampleRate: 1, SlowestN: 8})
	const traces = 32
	var wg sync.WaitGroup
	for i := 0; i < traces; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := tc.Start(NewRequestID(), "color")
			var inner sync.WaitGroup
			inner.Add(1)
			go func() { // the "worker" goroutine
				defer inner.Done()
				tr.RecordSpan(StageBatchCompute, time.Now(), time.Microsecond)
			}()
			tr.RecordSpan(StageResponseWrite, time.Now(), time.Microsecond)
			inner.Wait()
			tr.Finish(200)
		}()
	}
	wg.Wait()
	snap := tc.Snapshot()
	if snap.Finished != traces {
		t.Errorf("finished = %d, want %d", snap.Finished, traces)
	}
	if len(snap.Slowest) != 8 {
		t.Errorf("slowest = %d, want 8", len(snap.Slowest))
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Errorf("snapshot not marshalable: %v", err)
	}
}

// TestHistogramBucketBoundaries pins the power-of-two bucketing of
// Histogram.Observe: bucket i holds v with bits.Len64(v) == i, labeled
// by its inclusive upper bound 2^i - 1 ("inf" for the clamp bucket).
// Every histogram pmsd serves (/debug/requests, /metrics) buckets
// through this type; any shift here would silently re-bucket
// every dashboard reading them.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		name  string
		v     int64
		label string
	}{
		{"zero", 0, "0"},
		{"one", 1, "1"},
		{"two is a power boundary", 2, "3"},
		{"three tops bucket 2", 3, "3"},
		{"four is a power boundary", 4, "7"},
		{"seven tops bucket 3", 7, "7"},
		{"eight is a power boundary", 8, "15"},
		{"top of bucket 10", (1 << 10) - 1, "1023"},
		{"power 2^10", 1 << 10, "2047"},
		{"top of last finite bucket", (1 << 26) - 1, "67108863"},
		{"first clamped power", 1 << 26, "inf"},
		{"deep clamp", 1 << 40, "inf"},
		{"negative clamps to zero", -5, "0"},
	}
	for _, tc := range cases {
		var h Histogram
		h.Observe(tc.v)
		count, sum, buckets := h.Load()
		if count != 1 {
			t.Errorf("%s: count = %d, want 1", tc.name, count)
		}
		var landed []string
		for i, c := range buckets {
			for ; c > 0; c-- {
				landed = append(landed, BucketLabel(i))
			}
		}
		if len(landed) != 1 || landed[0] != tc.label {
			t.Errorf("%s: Observe(%d) landed in %v, want bucket %q", tc.name, tc.v, landed, tc.label)
		}
		wantSum := tc.v
		if wantSum < 0 {
			wantSum = 0
		}
		if sum != wantSum {
			t.Errorf("%s: sum = %d, want %d", tc.name, sum, wantSum)
		}
	}
}

// TestBucketLabels pins the label strings themselves, including the
// clamp bucket.
func TestBucketLabels(t *testing.T) {
	cases := []struct {
		i    int
		want string
	}{
		{0, "0"},
		{1, "1"},
		{2, "3"},
		{3, "7"},
		{10, "1023"},
		{20, "1048575"},
		{26, "67108863"},
		{NumBuckets - 1, "inf"},
	}
	for _, tc := range cases {
		if got := BucketLabel(tc.i); got != tc.want {
			t.Errorf("BucketLabel(%d) = %q, want %q", tc.i, got, tc.want)
		}
	}
}
