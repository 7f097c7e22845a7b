package server

import (
	"sync"
	"testing"

	"repro/internal/tree"
)

func TestRegistrySingleFlight(t *testing.T) {
	met := &Metrics{}
	reg := NewRegistry(1<<30, met)
	spec := MappingSpec{Alg: "color", Levels: 18, M: 4}

	const goroutines = 50
	var wg sync.WaitGroup
	colors := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m, err := reg.Acquire(spec)
			if err != nil {
				t.Error(err)
				return
			}
			colors[g] = m.Color(tree.V(100, 10))
		}(g)
	}
	wg.Wait()

	for g := 1; g < goroutines; g++ {
		if colors[g] != colors[0] {
			t.Fatalf("inconsistent colors: %d vs %d", colors[g], colors[0])
		}
	}
	if misses := met.registryMisses.Load(); misses != 1 {
		t.Errorf("misses = %d, want 1 (single-flight build)", misses)
	}
	if hits := met.registryHits.Load(); hits != goroutines-1 {
		t.Errorf("hits = %d, want %d", hits, goroutines-1)
	}
}

func TestRegistryLRUEviction(t *testing.T) {
	met := &Metrics{}
	// Random mappings at 12 levels cost 4·(2^12 - 1) ≈ 16 KiB each; a tiny
	// budget forces eviction after a handful of entries.
	reg := NewRegistry(registryShards*20<<10, met)

	for i := 0; i < 64; i++ {
		spec := MappingSpec{Alg: "random", Levels: 12, Modules: 7, Seed: int64(i)}
		if _, err := reg.Acquire(spec); err != nil {
			t.Fatal(err)
		}
	}
	if evictions := met.registryEvictions.Load(); evictions == 0 {
		t.Error("no evictions under a tiny budget")
	}
	if got, want := met.registryBytes.Load(), int64(registryShards*20<<10+64<<10); got > want {
		t.Errorf("cached bytes %d above budget+slack %d", got, want)
	}
	// Evicted entries rebuild on demand and still answer consistently.
	spec := MappingSpec{Alg: "random", Levels: 12, Modules: 7, Seed: 0}
	m1, err := reg.Acquire(spec)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := reg.Acquire(spec)
	if err != nil {
		t.Fatal(err)
	}
	for h := int64(0); h < 100; h++ {
		n := tree.FromHeapIndex(h * 37 % 4095)
		if m1.Color(n) != m2.Color(n) {
			t.Fatalf("rebuilt mapping disagrees at %v", n)
		}
	}
}

func TestRegistryKeysNormalize(t *testing.T) {
	// Irrelevant fields must not split the cache.
	a := MappingSpec{Alg: "mod", Levels: 10, Modules: 7, Seed: 1, M: 3}
	b := MappingSpec{Alg: "mod", Levels: 10, Modules: 7, Seed: 99, M: 5}
	if a.Key() != b.Key() {
		t.Errorf("keys differ for equivalent specs: %q vs %q", a.Key(), b.Key())
	}
	// Policy default and explicit band-cyclic coincide.
	c := MappingSpec{Alg: "labeltree", Levels: 10, Modules: 31}
	d := MappingSpec{Alg: "labeltree", Levels: 10, Modules: 31, Policy: "band-cyclic"}
	if c.Key() != d.Key() {
		t.Errorf("labeltree default policy key differs: %q vs %q", c.Key(), d.Key())
	}
	e := MappingSpec{Alg: "labeltree", Levels: 10, Modules: 31, Policy: "balanced"}
	if e.Key() == c.Key() {
		t.Error("balanced policy must not share the band-cyclic cache entry")
	}
}

func TestRegistryConcurrentMixedSpecs(t *testing.T) {
	met := &Metrics{}
	reg := NewRegistry(1<<22, met)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				spec := MappingSpec{Alg: "random", Levels: 10, Modules: 5, Seed: int64(i % 7)}
				if g%2 == 0 {
					spec = MappingSpec{Alg: "labeltree", Levels: 20, Modules: 15 + 2*(i%5)}
				}
				m, err := reg.Acquire(spec)
				if err != nil {
					t.Errorf("acquire %+v: %v", spec, err)
					return
				}
				if c := m.Color(tree.V(3, 5)); c < 0 || c >= m.Modules() {
					t.Errorf("color %d out of range for %+v", c, spec)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestSpecValidation(t *testing.T) {
	bad := []MappingSpec{
		{},
		{Alg: "color", Levels: 10, M: 1},
		{Alg: "color", Levels: 10, M: 6},
		{Alg: "color", Levels: 0, M: 3},
		{Alg: "labeltree", Levels: 10, Modules: 2},
		{Alg: "labeltree", Levels: 10, Modules: 1 << 20},
		{Alg: "labeltree", Levels: 10, Modules: 31, Policy: "zigzag"},
		{Alg: "mod", Levels: 10, Modules: 0},
		{Alg: "random", Levels: 30, Modules: 7},
		{Alg: "quantum", Levels: 10, Modules: 7},
	}
	for _, sp := range bad {
		if err := sp.Validate(); err == nil {
			t.Errorf("spec %+v unexpectedly valid", sp)
		}
	}
	good := []MappingSpec{
		{Alg: "color", Levels: 20, M: 3},
		{Alg: "labeltree", Levels: 30, Modules: 31, Policy: "balanced"},
		{Alg: "mod", Levels: 40, Modules: 7},
		{Alg: "levelcyclic", Levels: 12, Modules: 3},
		{Alg: "random", Levels: 22, Modules: 9, Seed: 5},
	}
	for _, sp := range good {
		if err := sp.Validate(); err != nil {
			t.Errorf("spec %+v rejected: %v", sp, err)
		}
		if _, _, err := sp.build(); err != nil {
			t.Errorf("spec %+v failed to build: %v", sp, err)
		}
	}
}
