package obsv

import (
	"encoding/json"
	"fmt"
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
			var r Record
			tr.Sample(&r, time.Now())
			if r.Traced() {
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

// TestUntracedRecordIsFree pins the unsampled path: spans and Finish on
// an untraced Record record nothing, and a nil or disabled tracer
// leaves every Record untraced.
func TestUntracedRecordIsFree(t *testing.T) {
	var r Record
	r.Span(StageBatchCompute, time.Now(), time.Millisecond)
	r.SpanSince(StageAdmissionWait, time.Now())
	r.Finish(200)
	if r.Traced() {
		t.Error("zero Record reports Traced")
	}
	if got := r.StagesUS(); got != [NumStages]int64{} {
		t.Errorf("untraced stage totals = %v, want zeroes", got)
	}
	if r.nspans != 0 {
		t.Errorf("untraced Record holds %d spans", r.nspans)
	}
	var tc *Tracer
	if tc.Enabled() {
		t.Error("nil tracer Enabled() = true")
	}
	tc.Sample(&r, time.Now())
	New(Config{SampleRate: 0}).Sample(&r, time.Now())
	if r.Traced() {
		t.Error("a nil or disabled tracer traced the Record")
	}
	_ = tc.Snapshot()
	if n := testing.AllocsPerRun(100, func() {
		var r Record
		r.Span(StageBatchCompute, time.Now(), time.Millisecond)
		r.Finish(200)
	}); n != 0 {
		t.Errorf("untraced Record allocates %v per request, want 0", n)
	}
}

func TestSpansAndStageHistograms(t *testing.T) {
	tc := New(Config{SampleRate: 1})
	tr := &Record{ID: "req-1", Endpoint: "color"}
	base := time.Now()
	tc.Sample(tr, base)
	if !tr.Traced() {
		t.Fatal("Sample left the Record untraced at rate 1")
	}
	tr.Span(StageCoalesceWait, base, 500*time.Microsecond)
	tr.Span(StageAdmissionWait, base.Add(500*time.Microsecond), 100*time.Microsecond)
	tr.Span(StageRegistryMaterialize, base.Add(600*time.Microsecond), 3*time.Millisecond)
	tr.SpanSince(StageBatchCompute, time.Now())
	tr.Client = ClientInfo{Attempt: 2, ElapsedUS: 1234, Hedge: true}
	if got := tr.StagesUS(); got[StageCoalesceWait] != 500 || got[StageRegistryMaterialize] != 3000 {
		t.Errorf("stage totals = %v, want coalesce 500 and materialize 3000", got)
	}
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
	if sp := got.Spans[1]; sp.Stage != "admission_wait" || sp.StartUS != 500 || sp.DurUS != 100 {
		t.Errorf("span 1 = %+v, want admission_wait at 500µs for 100µs", sp)
	}

	// Spans after Finish are dropped from the trace and a second Finish
	// is a complete no-op.
	tr.Span(StageResponseWrite, time.Now(), time.Millisecond)
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
		b.offer(&Record{ID: "t"}, 200, us)
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
	b.offer(&Record{}, 200, 300)
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

// TestRequestIDFormat pins the ID layout against fmt's "%s-%08x".
func TestRequestIDFormat(t *testing.T) {
	for _, n := range []uint64{0, 1, 0xa4, 0xffffffff, 1 << 32, 1<<64 - 1} {
		want := fmt.Sprintf("%s-%08x", "3fa9c12b", n)
		if got := formatRequestID("3fa9c12b", n); got != want {
			t.Errorf("formatRequestID(%d) = %q, want %q", n, got, want)
		}
	}
}

// TestConcurrentRecording exercises the cross-goroutine span path under
// -race: a "worker" goroutine records on behalf of each request, and a
// channel send hands the Record back before its owner records again and
// finishes, while many requests share one tracer.
func TestConcurrentRecording(t *testing.T) {
	tc := New(Config{SampleRate: 1, SlowestN: 8})
	const traces = 32
	var wg sync.WaitGroup
	for i := 0; i < traces; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &Record{ID: NewRequestID(), Endpoint: "color"}
			tc.Sample(tr, time.Now())
			done := make(chan struct{})
			go func() { // the "worker" goroutine
				tr.Span(StageBatchCompute, time.Now(), time.Microsecond)
				close(done)
			}()
			<-done
			tr.Span(StageResponseWrite, time.Now(), time.Microsecond)
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

// TestSpanlessTraceEncodesEmptySpans pins the /debug/requests shape of a
// trace that recorded no spans: "spans":[] rather than null.
func TestSpanlessTraceEncodesEmptySpans(t *testing.T) {
	tc := New(Config{SampleRate: 1})
	r := Record{ID: "req-0", Endpoint: "color"}
	tc.Sample(&r, time.Now())
	r.Finish(200)
	snap := tc.Snapshot()
	if len(snap.Slowest) != 1 {
		t.Fatalf("slowest holds %d traces, want 1", len(snap.Slowest))
	}
	data, err := json.Marshal(snap.Slowest[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"spans":[]`) {
		t.Errorf("spanless trace encodes as %s, want \"spans\":[]", data)
	}
}

// TestSpanSlotsOverflow checks a Record past its span slots: the list
// keeps the first maxSpans spans, and every span still counts in its
// stage total and histogram.
func TestSpanSlotsOverflow(t *testing.T) {
	tc := New(Config{SampleRate: 1})
	r := Record{ID: "req-0", Endpoint: "color"}
	base := time.Now()
	tc.Sample(&r, base)
	const n = maxSpans + 3
	for i := 0; i < n; i++ {
		r.Span(StageBatchCompute, base, 2*time.Microsecond)
	}
	if got := r.StagesUS()[StageBatchCompute]; got != 2*n {
		t.Errorf("batch_compute total = %dµs, want %d", got, 2*n)
	}
	r.Finish(200)
	snap := tc.Snapshot()
	if c := snap.Stages["batch_compute"].Count; c != n {
		t.Errorf("batch_compute histogram count = %d, want %d", c, n)
	}
	if got := len(snap.Slowest[0].Spans); got != maxSpans {
		t.Errorf("trace keeps %d spans, want %d", got, maxSpans)
	}
}
