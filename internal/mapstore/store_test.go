package mapstore

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/coloring"
	"repro/internal/colormap"
	"repro/internal/labeltree"
	"repro/internal/tree"
)

// testArray is a small deterministic dense mapping.
func testArray(tb testing.TB, levels, modules int) *coloring.ArrayMapping {
	tb.Helper()
	a := coloring.NewArrayMapping(tree.New(levels), modules, "store-test")
	for i := range a.Colors {
		a.Colors[i] = int32(i % modules)
	}
	return a
}

func testRetriever(tb testing.TB) coloring.Mapping {
	tb.Helper()
	r, err := colormap.NewRetriever(colormap.Params{Levels: 12, BandLevels: 4, SubtreeLevels: 2})
	if err != nil {
		tb.Fatalf("NewRetriever: %v", err)
	}
	return r.Mapping()
}

func testLabelTree(tb testing.TB) *labeltree.Mapping {
	tb.Helper()
	lt, err := labeltree.New(12, 12)
	if err != nil {
		tb.Fatalf("labeltree.New: %v", err)
	}
	return lt
}

// sampleNodes returns nodes covering every level of an h-level tree.
func sampleNodes(h int) []tree.Node {
	var nodes []tree.Node
	for lvl := 0; lvl < h; lvl++ {
		w := tree.Pow2(lvl)
		for _, i := range []int64{0, w / 2, w - 1} {
			nodes = append(nodes, tree.V(i, lvl))
		}
	}
	return nodes
}

// requireSameColors asserts the two mappings agree on every sampled node,
// through both Color and ColorBatch.
func requireSameColors(t *testing.T, got, want coloring.Mapping) {
	t.Helper()
	if got.Modules() != want.Modules() {
		t.Fatalf("modules: got %d, want %d", got.Modules(), want.Modules())
	}
	if got.Tree().Levels() != want.Tree().Levels() {
		t.Fatalf("levels: got %d, want %d", got.Tree().Levels(), want.Tree().Levels())
	}
	nodes := sampleNodes(want.Tree().Levels())
	gb := make([]int, len(nodes))
	wb := make([]int, len(nodes))
	coloring.ColorBatch(got, gb, nodes)
	coloring.ColorBatch(want, wb, nodes)
	for i, n := range nodes {
		if got.Color(n) != want.Color(n) || gb[i] != wb[i] {
			t.Fatalf("node %v: got color %d/%d, want %d/%d", n, got.Color(n), gb[i], want.Color(n), wb[i])
		}
	}
}

func openTest(t *testing.T, opts Options) *Store {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestRoundTripKinds(t *testing.T) {
	for _, disableMmap := range []bool{false, true} {
		name := "mmap"
		if disableMmap {
			name = "readcopy"
		}
		t.Run(name, func(t *testing.T) {
			kinds := map[string]coloring.Mapping{
				"array":     testArray(t, 8, 5),
				"retriever": testRetriever(t),
				"labeltree": testLabelTree(t),
			}
			dir := t.TempDir()
			s := openTest(t, Options{Dir: dir, DisableMmap: disableMmap})
			for key, m := range kinds {
				if !CanStore(m) {
					t.Fatalf("CanStore(%s) = false", key)
				}
				if err := s.Put(key, m); err != nil {
					t.Fatalf("Put(%s): %v", key, err)
				}
			}
			// Reopen so Get reads from disk, not the admission-path cache.
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			s2 := openTest(t, Options{Dir: dir, DisableMmap: disableMmap})
			for key, want := range kinds {
				got, ok := s2.Get(key)
				if !ok {
					t.Fatalf("Get(%s) missed after reopen", key)
				}
				requireSameColors(t, got, want)
				// Second Get must hit the decoded-entry cache and return the
				// same mapping.
				again, ok := s2.Get(key)
				if !ok || again != got {
					t.Fatalf("Get(%s) second hit: ok=%v same=%v", key, ok, again == got)
				}
			}
			st := s2.Stats()
			if st.Hits != 6 || st.Misses != 0 || st.Entries != 3 {
				t.Fatalf("stats after round trip: %+v", st)
			}
			if n, _, _ := s2.LoadNS().Load(); n != 3 {
				t.Fatalf("load count = %d, want 3", n)
			}
		})
	}
}

func TestGetMissAndUnsupportedKind(t *testing.T) {
	s := openTest(t, Options{})
	if _, ok := s.Get("absent"); ok {
		t.Fatal("Get on empty store reported a hit")
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
	// Closed-form mappings have no codec; PutAsync must skip them silently.
	mod := baseline.Modulo(tree.New(4), 3)
	if CanStore(mod) {
		t.Fatal("CanStore(baseline.Modulo) = true")
	}
	s.PutAsync("mod", mod)
	if st := s.Stats(); st.Spills != 0 || st.SpillDrops != 0 {
		t.Fatalf("unsupported PutAsync counted: %+v", st)
	}
}

func TestPutIdempotent(t *testing.T) {
	s := openTest(t, Options{})
	a := testArray(t, 6, 4)
	for i := 0; i < 3; i++ {
		if err := s.Put("k", a); err != nil {
			t.Fatalf("Put #%d: %v", i, err)
		}
	}
	if st := s.Stats(); st.Spills != 1 || st.Entries != 1 {
		t.Fatalf("idempotent Put stats: %+v", st)
	}
}

func TestCorruptPayloadDetectedOnGet(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Options{Dir: dir})
	if err := s.Put("victim", testArray(t, 8, 5)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	s.Close()

	// Flip one payload byte. The header stays valid, so Open re-adopts the
	// file; the payload CRC must catch it on first Get.
	file := filepath.Join(dir, entryFileName("victim"))
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	data[headerBlock+100] ^= 0x40
	if err := os.WriteFile(file, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, Options{Dir: dir})
	if st := s2.Stats(); st.Entries != 1 {
		t.Fatalf("entries after reopen = %d, want 1", st.Entries)
	}
	if _, ok := s2.Get("victim"); ok {
		t.Fatal("Get returned a mapping from a corrupt entry")
	}
	st := s2.Stats()
	if st.Corrupt != 1 || st.Misses != 1 || st.Entries != 0 {
		t.Fatalf("corrupt-entry stats: %+v", st)
	}
	if _, err := os.Stat(file); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry not unlinked: %v", err)
	}
}

func TestOpenSkipsTruncatedAndTempFiles(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Options{Dir: dir})
	if err := s.Put("good", testArray(t, 6, 4)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Put("doomed", testArray(t, 7, 3)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	s.Close()

	// Simulate a kill -9 mid-spill: truncate one committed entry (as if the
	// rename landed but a later process tore the file) and leave a stale
	// temp file behind.
	doomed := filepath.Join(dir, entryFileName("doomed"))
	if err := os.Truncate(doomed, 100); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "half-spill.pme.tmp")
	if err := os.WriteFile(stale, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, Options{Dir: dir})
	st := s2.Stats()
	if st.Entries != 1 || st.Corrupt != 1 {
		t.Fatalf("open-after-crash stats: %+v", st)
	}
	if _, ok := s2.Get("good"); !ok {
		t.Fatal("surviving entry unreadable after crash recovery")
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file not removed: %v", err)
	}
	if _, err := os.Stat(doomed); !os.IsNotExist(err) {
		t.Fatalf("truncated entry not removed: %v", err)
	}
}

func TestOpenSurvivesCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Options{Dir: dir})
	if err := s.Put("k", testArray(t, 6, 4)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	s.Close()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("not a manifest"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, Options{Dir: dir})
	if st := s2.Stats(); st.Entries != 1 || st.Corrupt != 1 {
		t.Fatalf("stats after corrupt manifest: %+v", st)
	}
	if _, ok := s2.Get("k"); !ok {
		t.Fatal("entry lost with the manifest (entries must be self-describing)")
	}
}

func TestBudgetEvictsColdest(t *testing.T) {
	clock := time.Unix(1_700_000_000, 0)
	now := func() time.Time { return clock }
	dir := t.TempDir()
	s := openTest(t, Options{Dir: dir, BudgetBytes: 40 << 10, now: now})

	a := testArray(t, 8, 5) // ≈ 9 KiB: header block + aligned meta + colors
	if err := s.Put("cold", a); err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(time.Second)
	if err := s.Put("warm", a); err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(time.Second)
	// A ≈24 KiB entry pushes the store over 40 KiB; "cold" must go first.
	big := testArray(t, 12, 5)
	if err := s.Put("big", big); err != nil {
		t.Fatal(err)
	}
	if s.Contains("cold") {
		t.Fatal("coldest entry survived budget GC")
	}
	if !s.Contains("big") {
		t.Fatal("just-admitted entry was evicted by its own GC")
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions counted: %+v", st)
	}
	if st.Bytes > 40<<10 {
		t.Fatalf("store over budget after GC: %d bytes", st.Bytes)
	}
}

func TestTTLExpiry(t *testing.T) {
	clock := time.Unix(1_700_000_000, 0)
	now := func() time.Time { return clock }
	dir := t.TempDir()
	s := openTest(t, Options{Dir: dir, TTL: time.Minute, now: now})
	if err := s.Put("old", testArray(t, 6, 4)); err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(2 * time.Minute)
	if err := s.Put("new", testArray(t, 7, 4)); err != nil {
		t.Fatal(err)
	}
	if s.Contains("old") {
		t.Fatal("expired entry survived TTL GC")
	}
	if !s.Contains("new") {
		t.Fatal("fresh entry evicted")
	}
}

func TestHottestOrderSurvivesReopen(t *testing.T) {
	clock := time.Unix(1_700_000_000, 0)
	now := func() time.Time { return clock }
	dir := t.TempDir()
	s := openTest(t, Options{Dir: dir, now: now})
	for _, key := range []string{"a", "b", "c"} {
		if err := s.Put(key, testArray(t, 6, 4)); err != nil {
			t.Fatal(err)
		}
		clock = clock.Add(time.Second)
	}
	// Touch "a" last so it is hottest despite the admission order.
	clock = clock.Add(time.Hour)
	if _, ok := s.Get("a"); !ok {
		t.Fatal("Get(a) missed")
	}
	s.Close()

	s2 := openTest(t, Options{Dir: dir, now: now})
	got := s2.Hottest(2)
	if len(got) != 2 || got[0] != "a" {
		t.Fatalf("Hottest(2) = %v, want [a ...]", got)
	}
	if all := s2.Hottest(10); len(all) != 3 {
		t.Fatalf("Hottest(10) = %v, want all 3 keys", all)
	}
}

func TestPutAsyncDrainsOnClose(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Options{Dir: dir})
	a := testArray(t, 8, 5)
	for i := 0; i < 8; i++ {
		s.PutAsync("async-"+strings.Repeat("x", i+1), a)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := s.Stats()
	if st.Spills+st.SpillDrops != 8 {
		t.Fatalf("queued spills unaccounted: %+v", st)
	}
	if st.Spills == 0 {
		t.Fatalf("Close drained nothing: %+v", st)
	}
	// After Close everything is rejected, not queued.
	s.PutAsync("late", a)
	if got := s.Stats().SpillDrops; got != st.SpillDrops+1 {
		t.Fatalf("post-Close PutAsync not counted as drop: %d", got)
	}
}

func TestConcurrentGetSingleDecode(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Options{Dir: dir})
	want := testArray(t, 10, 7)
	if err := s.Put("k", want); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openTest(t, Options{Dir: dir})
	const workers = 16
	results := make([]coloring.Mapping, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m, ok := s2.Get("k")
			if ok {
				results[w] = m
			}
		}(w)
	}
	wg.Wait()
	for w, m := range results {
		if m == nil {
			t.Fatalf("worker %d missed", w)
		}
		if m != results[0] {
			t.Fatalf("worker %d got a different decode (loaded-cache race)", w)
		}
	}
	requireSameColors(t, results[0], want)
}

func TestEntryFileNameStable(t *testing.T) {
	a := entryFileName("color/H=20/N=8/k=2")
	b := entryFileName("color/H=20/N=8/k=2")
	c := entryFileName("color/H=20/N=8/k=3")
	if a != b {
		t.Fatalf("file name not deterministic: %q vs %q", a, b)
	}
	if a == c {
		t.Fatalf("distinct keys collided: %q", a)
	}
	if !strings.HasSuffix(a, entrySuffix) || strings.ContainsAny(a, "/=") {
		t.Fatalf("file name %q not sanitized", a)
	}
}
