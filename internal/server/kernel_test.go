// Tests for the batch color kernels and the registry bookkeeping around
// them: a full-tree differential proves every registry alg's ColorBatch
// is bit-identical to per-node Color (plus a fuzz entry over random
// batches with duplicates and out-of-order nodes), the size-accounting
// test pins build() against the mappings' measured SizeBytes, the drift
// test locks Validate/Key/build to the same closed alg list, and the
// status tests pin spec-shaped failures to 400.
package server

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/coloring"
	"repro/internal/tree"
)

// kernelSpecs covers every registry algorithm across parameter corners:
// COLOR at several (H, m) including H below one band (H < N), LABEL-TREE
// under both policies including a single-group module count, and all
// three closed-form baselines plus the materialized random mapping.
func kernelSpecs() []MappingSpec {
	return []MappingSpec{
		{Alg: "color", Levels: 12, M: 2},
		{Alg: "color", Levels: 16, M: 3},
		{Alg: "color", Levels: 14, M: 4},           // H < N = 19: band0 covers the whole tree
		{Alg: "labeltree", Levels: 12, Modules: 3}, // Groups = 1: the d==1 divmod path
		{Alg: "labeltree", Levels: 14, Modules: 7},
		{Alg: "labeltree", Levels: 12, Modules: 100},
		{Alg: "labeltree", Levels: 13, Modules: 7, Policy: "balanced"},
		{Alg: "labeltree", Levels: 12, Modules: 64, Policy: "balanced"},
		{Alg: "mod", Levels: 12, Modules: 5},
		{Alg: "levelcyclic", Levels: 12, Modules: 7},
		{Alg: "random", Levels: 12, Modules: 9, Seed: 42},
	}
}

// fullTreeNodes returns every node of a levels-level tree in level order.
func fullTreeNodes(levels int) []tree.Node {
	t := tree.New(levels)
	nodes := make([]tree.Node, 0, t.Nodes())
	for j := 0; j < levels; j++ {
		for i := int64(0); i < t.LevelWidth(j); i++ {
			nodes = append(nodes, tree.V(i, j))
		}
	}
	return nodes
}

// TestColorBatchDifferential is the kernel correctness guard: for every
// registry alg, ColorBatch over the full tree must be bit-identical to
// per-node Color, the kernel path must actually engage (no registry
// mapping silently falls back), and a shuffled batch with duplicates
// must agree position-by-position.
func TestColorBatchDifferential(t *testing.T) {
	for _, sp := range kernelSpecs() {
		sp := sp
		t.Run(sp.Key(), func(t *testing.T) {
			if err := sp.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			m, _, err := sp.build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if _, ok := m.(coloring.BatchColorer); !ok {
				t.Fatalf("%T does not implement BatchColorer", m)
			}
			nodes := fullTreeNodes(sp.Levels)
			dst := make([]int, len(nodes))
			if !coloring.ColorBatch(m, dst, nodes) {
				t.Fatal("ColorBatch took the fallback path for a registry mapping")
			}
			for i, n := range nodes {
				if want := m.Color(n); dst[i] != want {
					t.Fatalf("node %v: kernel %d, Color %d", n, dst[i], want)
				}
			}

			// Shuffled with duplicates: order and repetition must not matter.
			rng := rand.New(rand.NewSource(7))
			batch := make([]tree.Node, 200)
			for i := range batch {
				batch[i] = nodes[rng.Intn(len(nodes))]
			}
			out := make([]int, len(batch))
			coloring.ColorBatch(m, out, batch)
			for i, n := range batch {
				if want := m.Color(n); out[i] != want {
					t.Fatalf("shuffled batch[%d] = %v: kernel %d, Color %d", i, n, out[i], want)
				}
			}
		})
	}
}

// fuzzMappings caches built mappings across fuzz iterations (building a
// COLOR retriever per exec would dominate the fuzz budget).
var fuzzMappings sync.Map // int -> coloring.Mapping

func fuzzMapping(t *testing.T, idx int) coloring.Mapping {
	t.Helper()
	if m, ok := fuzzMappings.Load(idx); ok {
		return m.(coloring.Mapping)
	}
	m, _, err := kernelSpecs()[idx].build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	fuzzMappings.Store(idx, m)
	return m
}

// FuzzColorBatchDifferential feeds random batches — arbitrary order,
// duplicates, boundary indices — through every kernel and cross-checks
// per-node Color.
func FuzzColorBatchDifferential(f *testing.F) {
	f.Add(uint8(0), int64(1), uint16(64))
	f.Add(uint8(3), int64(99), uint16(1))
	f.Add(uint8(6), int64(-5), uint16(512))
	f.Fuzz(func(t *testing.T, specIdx uint8, seed int64, size uint16) {
		specs := kernelSpecs()
		idx := int(specIdx) % len(specs)
		sp := specs[idx]
		m := fuzzMapping(t, idx)
		rng := rand.New(rand.NewSource(seed))
		n := int(size)%1024 + 1
		batch := make([]tree.Node, n)
		for i := range batch {
			lvl := rng.Intn(sp.Levels)
			width := tree.Pow2(lvl)
			var index int64
			switch rng.Intn(4) {
			case 0:
				index = 0
			case 1:
				index = width - 1
			default:
				index = rng.Int63n(width)
			}
			batch[i] = tree.V(index, lvl)
		}
		dst := make([]int, n)
		coloring.ColorBatch(m, dst, batch)
		for i, node := range batch {
			if want := m.Color(node); dst[i] != want {
				t.Fatalf("spec %s batch[%d] = %v: kernel %d, Color %d", sp.Key(), i, node, dst[i], want)
			}
		}
	})
}

// TestRegistrySizeAccountingMeasured pins build()'s registry charge to
// the mappings' own measured SizeBytes — the LRU budget must track live
// table lengths, not parameter-derived estimates. The old labeltree
// estimate charged tree.SubtreeSize(m)*4 off the wrong quantity; the
// large-M case locks in that the measured size stays linear in M.
func TestRegistrySizeAccountingMeasured(t *testing.T) {
	for _, sp := range kernelSpecs() {
		m, size, err := sp.build()
		if err != nil {
			t.Fatalf("%s: build: %v", sp.Key(), err)
		}
		if s, ok := m.(coloring.Sized); ok {
			if got := s.SizeBytes(); size != got {
				t.Errorf("%s: build charged %d bytes, SizeBytes reports %d", sp.Key(), size, got)
			}
		} else if size != 64 {
			t.Errorf("%s: unsized mapping charged %d bytes, want the 64-byte overhead", sp.Key(), size)
		}
		if size <= 0 {
			t.Errorf("%s: nonpositive size %d", sp.Key(), size)
		}
	}

	// Table-backed algs must charge at least their dominant table.
	colorSp := MappingSpec{Alg: "color", Levels: 16, M: 3}
	if _, size, _ := colorSp.build(); size < tree.SubtreeSize(6)*8 {
		t.Errorf("color size %d below its 2^N-entry table", size)
	}
	randSp := MappingSpec{Alg: "random", Levels: 12, Modules: 9, Seed: 1}
	if _, size, _ := randSp.build(); size < tree.New(12).Nodes()*4 {
		t.Errorf("random size %d below its dense color array", size)
	}

	// Large-M labeltree: the micro table is O(M); a few MiB at the cap,
	// never the 2^M explosion of the old estimate.
	big := MappingSpec{Alg: "labeltree", Levels: 30, Modules: 1 << 16}
	if err := big.Validate(); err != nil {
		t.Fatalf("big labeltree spec invalid: %v", err)
	}
	_, size, err := big.build()
	if err != nil {
		t.Fatalf("big labeltree build: %v", err)
	}
	if size <= 0 || size > 64<<20 {
		t.Errorf("labeltree M=2^16 size = %d bytes, want a sane O(M) figure", size)
	}
}

// TestRegistryBytesMatchBuilds checks the registry's byte ledger (the
// pmsd_registry_bytes gauge) agrees with the per-entry measured sizes
// after real acquires.
func TestRegistryBytesMatchBuilds(t *testing.T) {
	met := &Metrics{}
	reg := NewRegistry(1<<30, met)
	var want int64
	for _, sp := range kernelSpecs() {
		if _, err := reg.Acquire(sp); err != nil {
			t.Fatalf("%s: %v", sp.Key(), err)
		}
		_, size, err := sp.build()
		if err != nil {
			t.Fatal(err)
		}
		want += size
	}
	if got := met.registryBytes.Load(); got != want {
		t.Errorf("registry_bytes metric = %d, want %d (sum of measured sizes)", got, want)
	}
}

// validSpecFor returns a known-good spec for each registry alg.
func validSpecFor(alg string) MappingSpec {
	switch alg {
	case "color":
		return MappingSpec{Alg: alg, Levels: 12, M: 3}
	case "labeltree":
		return MappingSpec{Alg: alg, Levels: 12, Modules: 7}
	case "random":
		return MappingSpec{Alg: alg, Levels: 12, Modules: 5, Seed: 1}
	default:
		return MappingSpec{Alg: alg, Levels: 12, Modules: 5}
	}
}

// TestSpecAlgSurfacesAgree is the drift guard of the Key() fix: the
// three spec surfaces (Validate, Key, build) accept exactly the algs in
// specAlgs, and every unknown alg is rejected by all three — Key() must
// never mint a cacheable key Validate would refuse.
func TestSpecAlgSurfacesAgree(t *testing.T) {
	for _, alg := range specAlgs {
		sp := validSpecFor(alg)
		if err := sp.Validate(); err != nil {
			t.Errorf("alg %q: Validate rejects a known-good spec: %v", alg, err)
		}
		if key := sp.Key(); strings.HasPrefix(key, "!invalid/") {
			t.Errorf("alg %q: Key() = %q marks a valid alg invalid", alg, key)
		}
		if _, _, err := sp.build(); err != nil {
			t.Errorf("alg %q: build fails on a validated spec: %v", alg, err)
		}
	}
	for _, alg := range []string{"", "colour", "COLOR", "label-tree", "basic", "mod ", "zzz"} {
		sp := validSpecFor("mod")
		sp.Alg = alg
		if err := sp.Validate(); err == nil {
			t.Errorf("alg %q: Validate accepted an unknown alg", alg)
		}
		if key := sp.Key(); !strings.HasPrefix(key, "!invalid/") {
			t.Errorf("alg %q: Key() = %q mints a valid-looking cache key", alg, key)
		}
		_, _, err := sp.build()
		if err == nil {
			t.Errorf("alg %q: build accepted an unknown alg", alg)
			continue
		}
		var sr *specRejected
		if !errors.As(err, &sr) {
			t.Errorf("alg %q: build error %v is not specRejected", alg, err)
		}
	}
}

// TestValidateImpliesBuild sweeps a parameter grid per alg: every spec
// Validate admits must build — the invariant that keeps registry build
// failures out of the 500 bucket entirely.
func TestValidateImpliesBuild(t *testing.T) {
	var specs []MappingSpec
	for _, levels := range []int{1, 2, 3, 12, 40} {
		for m := 1; m <= 6; m++ {
			specs = append(specs, MappingSpec{Alg: "color", Levels: levels, M: m})
		}
		for _, mod := range []int{2, 3, 4, 7, 100, 1 << 16} {
			for _, pol := range []string{"", "band-cyclic", "balanced"} {
				specs = append(specs, MappingSpec{Alg: "labeltree", Levels: levels, Modules: mod, Policy: pol})
			}
		}
		for _, mod := range []int{1, 5, 1 << 16} {
			specs = append(specs,
				MappingSpec{Alg: "mod", Levels: levels, Modules: mod},
				MappingSpec{Alg: "levelcyclic", Levels: levels, Modules: mod},
				MappingSpec{Alg: "random", Levels: levels, Modules: mod, Seed: 3})
		}
	}
	for _, sp := range specs {
		if err := sp.Validate(); err != nil {
			continue // rejected up front: never reaches build
		}
		if _, _, err := sp.build(); err != nil {
			t.Errorf("spec %s passed Validate but failed build: %v", sp.Key(), err)
		}
	}
}

// TestWriteResultErrorStatuses pins the worker-error → HTTP mapping:
// spec-shaped build failures are 400s (even wrapped), apiErrors pass
// through, and only genuine server-side conditions become 500s.
func TestWriteResultErrorStatuses(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"overloaded", errOverloaded, http.StatusTooManyRequests},
		{"spec_rejected", &specRejected{errors.New("bad params")}, http.StatusBadRequest},
		{"spec_rejected_wrapped", fmt.Errorf("build: %w", &specRejected{errors.New("bad")}), http.StatusBadRequest},
		{"server_side", errors.New("disk on fire"), http.StatusInternalServerError},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			writeResultError(rec, c.err)
			if rec.Code != c.want {
				t.Errorf("status = %d, want %d", rec.Code, c.want)
			}
		})
	}
}

// TestBadSpecsRejected400 drives the bad-spec space through the real
// /v1/color handler: every malformed spec must come back 400, never 500.
func TestBadSpecsRejected400(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	bad := []MappingSpec{
		{Alg: "color", Levels: 0, M: 3},
		{Alg: "color", Levels: 41, M: 3},
		{Alg: "color", Levels: 12, M: 1},
		{Alg: "color", Levels: 12, M: 6},
		{Alg: "labeltree", Levels: 12, Modules: 2},
		{Alg: "labeltree", Levels: 12, Modules: 1<<16 + 1},
		{Alg: "labeltree", Levels: 12, Modules: 7, Policy: "zigzag"},
		{Alg: "mod", Levels: 12, Modules: 0},
		{Alg: "levelcyclic", Levels: 12, Modules: 1 << 17},
		{Alg: "random", Levels: 23, Modules: 5},
		{Alg: "bogus", Levels: 12, Modules: 5},
		{Alg: "", Levels: 12},
	}
	for _, sp := range bad {
		status := post(t, ts.Client(), ts.URL+"/v1/color", ColorRequest{
			Mapping: sp, Node: &NodeRef{Index: 0, Level: 0},
		}, nil)
		if status != http.StatusBadRequest {
			t.Errorf("spec %+v: status %d, want 400", sp, status)
		}
	}
}

// TestKernelMetricsRecorded checks the serving hot path actually records
// kernel-path batches: an explicit batch and a coalesced singleton both
// tick kernel_batches and the compute histogram, with zero fallbacks for
// registry algs.
func TestKernelMetricsRecorded(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	nodes := make([]NodeRef, 64)
	for i := range nodes {
		nodes[i] = NodeRef{Index: int64(i), Level: 10}
	}
	if status := post(t, ts.Client(), ts.URL+"/v1/color", ColorRequest{
		Mapping: MappingSpec{Alg: "color", Levels: 12, M: 3}, Nodes: nodes,
	}, nil); status != http.StatusOK {
		t.Fatalf("explicit batch: status %d", status)
	}
	if status := post(t, ts.Client(), ts.URL+"/v1/color", ColorRequest{
		Mapping: modSpec(12, 5), Node: &NodeRef{Index: 3, Level: 4},
	}, nil); status != http.StatusOK {
		t.Fatalf("singleton: status %d", status)
	}
	kernel := srv.met.kernelBatches.Load()
	if kernel < 2 {
		t.Errorf("kernel_batches = %d, want >= 2", kernel)
	}
	if n := srv.met.fallbackBatches.Load(); n != 0 {
		t.Errorf("fallback_batches = %d, want 0 (all registry algs have kernels)", n)
	}
	if n, _, _ := srv.met.batchComputeNS.Load(); n != kernel {
		t.Errorf("batch_compute_ns count = %d, want %d", n, kernel)
	}
}
