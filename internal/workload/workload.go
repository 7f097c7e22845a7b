// Package workload generates deterministic synthetic access workloads for
// the application simulators: heap operation sequences and dictionary /
// range-query key streams with uniform or Zipf-skewed distributions. All
// generators are seeded, so every experiment and example that replays the
// same spec sees byte-identical traffic.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/heapsim"
)

// Distribution selects how keys are drawn from the key space.
type Distribution int

const (
	// Uniform draws each key independently and uniformly.
	Uniform Distribution = iota
	// Zipf draws keys with a Zipf(s=1.2) skew, modeling hot keys.
	Zipf
	// Sequential cycles through the key space in order, modeling scans.
	Sequential
)

// String names the distribution.
func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Zipf:
		return "zipf"
	case Sequential:
		return "sequential"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

// KeyStream produces keys in [0, Space).
type KeyStream struct {
	dist  Distribution
	space int64
	rng   *rand.Rand
	zipf  *rand.Zipf
	next  int64
}

// NewKeyStream builds a seeded key stream over [0, space).
func NewKeyStream(dist Distribution, space, seed int64) (*KeyStream, error) {
	if space < 1 {
		return nil, fmt.Errorf("workload: key space %d must be positive", space)
	}
	ks := &KeyStream{dist: dist, space: space, rng: rand.New(rand.NewSource(seed))}
	switch dist {
	case Uniform, Sequential:
	case Zipf:
		ks.zipf = rand.NewZipf(ks.rng, 1.2, 1, uint64(space-1))
		if ks.zipf == nil {
			return nil, fmt.Errorf("workload: cannot build zipf over %d keys", space)
		}
	default:
		return nil, fmt.Errorf("workload: unknown distribution %v", dist)
	}
	return ks, nil
}

// Next returns the next key.
func (ks *KeyStream) Next() int64 {
	switch ks.dist {
	case Uniform:
		return ks.rng.Int63n(ks.space)
	case Zipf:
		return int64(ks.zipf.Uint64())
	default: // Sequential
		k := ks.next
		ks.next = (ks.next + 1) % ks.space
		return k
	}
}

// Keys returns the next n keys.
func (ks *KeyStream) Keys(n int) []int64 {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = ks.Next()
	}
	return keys
}

// HeapMix sets the operation proportions of a heap workload; the three
// weights need not sum to anything particular, only their ratio matters.
type HeapMix struct {
	Insert, DeleteMin, DecreaseKey int
}

// DefaultHeapMix is the 2:1:1 mix used by the E8 experiment.
func DefaultHeapMix() HeapMix { return HeapMix{Insert: 2, DeleteMin: 1, DecreaseKey: 1} }

// HeapOps generates n heap operations with the given mix and key stream.
func HeapOps(mix HeapMix, n int, keys *KeyStream, seed int64) ([]heapsim.Op, error) {
	total := mix.Insert + mix.DeleteMin + mix.DecreaseKey
	if total <= 0 {
		return nil, fmt.Errorf("workload: heap mix %+v has no weight", mix)
	}
	if n < 0 {
		return nil, fmt.Errorf("workload: negative op count %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	ops := make([]heapsim.Op, 0, n)
	for i := 0; i < n; i++ {
		r := rng.Intn(total)
		switch {
		case r < mix.Insert:
			ops = append(ops, heapsim.Op{Kind: heapsim.OpInsert, Key: keys.Next()})
		case r < mix.Insert+mix.DeleteMin:
			ops = append(ops, heapsim.Op{Kind: heapsim.OpDeleteMin})
		default:
			ops = append(ops, heapsim.Op{Kind: heapsim.OpDecreaseKey, Slot: rng.Int63(), Key: keys.Next() / 2})
		}
	}
	return ops, nil
}

// ZipfWeights returns n integer weights following a Zipf(s) rank decay
// (weight of rank i proportional to 1/(i+1)^s, scaled so the smallest
// is at least 1). Used to shape multi-tenant traffic and template mixes
// where a few categories dominate, the long tail trickles.
//
// The scale grows with n^s: a fixed scale would floor every rank past
// scale^(1/s) to the same clamped weight of 1, silently flattening the
// intended Zipf tail into a uniform one. With the adaptive scale the
// last rank's unclamped weight is ~1, so the decay spans all n ranks.
func ZipfWeights(n int, s float64) []int {
	scale := 1000.0
	if tail := math.Pow(float64(n), s); tail > scale {
		scale = tail
	}
	w := make([]int, n)
	for i := range w {
		w[i] = int(scale / math.Pow(float64(i+1), s))
		if w[i] < 1 {
			w[i] = 1
		}
	}
	return w
}

// TenantNames returns n deterministic tenant identifiers
// ("tenant-00", "tenant-01", …) for multi-tenant traffic shapes.
func TenantNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("tenant-%02d", i)
	}
	return names
}

// RangeSpec describes a range-query stream: spans drawn uniformly from
// [MinSpan, MaxSpan], anchored uniformly in the key space.
type RangeSpec struct {
	Space            int64
	MinSpan, MaxSpan int64
}

// Ranges generates n query ranges [lo, hi] within the spec.
func Ranges(spec RangeSpec, n int, seed int64) ([][2]int64, error) {
	if spec.MinSpan < 1 || spec.MaxSpan < spec.MinSpan || spec.MaxSpan > spec.Space {
		return nil, fmt.Errorf("workload: bad range spec %+v", spec)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([][2]int64, n)
	for i := range out {
		span := spec.MinSpan + rng.Int63n(spec.MaxSpan-spec.MinSpan+1)
		lo := rng.Int63n(spec.Space - span + 1)
		out[i] = [2]int64{lo, lo + span - 1}
	}
	return out, nil
}
