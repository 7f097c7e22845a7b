package metrics

import (
	"sync"
	"testing"
)

func TestDomainSnapshotMath(t *testing.T) {
	d := NewDomain(8)
	r := d.Recorder()
	if !r.Enabled() {
		t.Fatal("Recorder() of a live domain is disabled")
	}
	r.Access(0, 3)
	r.Access(2, 9)
	r.Access(7, 3)
	r.Batch(2)
	r.Batch(0)
	s := d.Snapshot()
	if s.TotalAccesses != 15 || s.ActiveModules != 3 {
		t.Fatalf("total=%d active=%d, want 15/3", s.TotalAccesses, s.ActiveModules)
	}
	if s.MaxLoad != 9 || s.MaxModule != 2 {
		t.Fatalf("max=%d at module %d, want 9 at 2", s.MaxLoad, s.MaxModule)
	}
	if s.MeanLoad != 5 {
		t.Fatalf("mean=%v, want 5", s.MeanLoad)
	}
	if s.LoadRatio != 9.0/5.0 {
		t.Fatalf("ratio=%v, want 1.8", s.LoadRatio)
	}
	if len(s.ModuleAccesses) != 8 {
		t.Fatalf("trimmed len=%d, want 8 (module 7 touched)", len(s.ModuleAccesses))
	}
	if s.Batches != 2 || s.Conflicts != 2 {
		t.Fatalf("batches=%d conflicts=%d, want 2/2", s.Batches, s.Conflicts)
	}
}

func TestDomainOverflowAndNegativeModules(t *testing.T) {
	d := NewDomain(4)
	r := d.Recorder()
	r.Access(4, 5)  // beyond bound
	r.Access(-1, 2) // nonsense module
	r.Access(1, 1)
	s := d.Snapshot()
	if s.Overflow != 7 {
		t.Fatalf("overflow=%d, want 7", s.Overflow)
	}
	if s.TotalAccesses != 1 {
		t.Fatalf("total=%d, want 1 (overflow excluded)", s.TotalAccesses)
	}
}

func TestNilDomainIsDisabled(t *testing.T) {
	var d *Domain
	r := d.Recorder()
	if r.Enabled() {
		t.Fatal("nil domain produced an enabled recorder")
	}
	// All of these must be safe no-ops.
	r.Access(3, 1)
	r.Batch(1)
	d.ObserveFamily("S", 2)
	if d.CheckBound(BoundQuery{Alg: "color", M: 2, Levels: 8, Kind: "S", Size: 1}, 99) {
		t.Fatal("nil domain reported a violation")
	}
	s := d.Snapshot()
	if s.TotalAccesses != 0 {
		t.Fatalf("nil snapshot not zero: %+v", s)
	}
	if d.FamilyHist("S") != nil {
		t.Fatal("nil domain returned a histogram")
	}
}

func TestObserveFamilyAndSnapshot(t *testing.T) {
	d := NewDomain(4)
	d.ObserveFamily("S", 0)
	d.ObserveFamily("S", 1)
	d.ObserveFamily("C", 7)
	d.ObserveFamily("bogus", 5) // ignored
	want := map[string][2]int64{"S": {2, 1}, "L": {0, 0}, "P": {0, 0}, "C": {1, 7}}
	for _, fam := range Families {
		count, sum, _ := d.FamilyHist(fam).Load()
		if got := [2]int64{count, sum}; got != want[fam] {
			t.Errorf("%s family count/sum = %v, want %v", fam, got, want[fam])
		}
	}
	if d.FamilyHist("bogus") != nil {
		t.Error("unknown family label returned a histogram")
	}
}

func TestCheckBoundCounters(t *testing.T) {
	d := NewDomain(4)
	q := BoundQuery{Alg: "color", M: 3, Levels: 16, Kind: "S", Size: 7}
	if d.CheckBound(q, 1) {
		t.Fatal("observed 1 ≤ bound 1 flagged as violation")
	}
	if !d.CheckBound(q, 2) {
		t.Fatal("observed 2 > bound 1 not flagged")
	}
	// L has no closed form: skipped, not checked.
	if d.CheckBound(BoundQuery{Alg: "color", M: 3, Levels: 16, Kind: "L", Size: 4}, 100) {
		t.Fatal("inapplicable bound reported a violation")
	}
	s := d.Snapshot()
	if s.BoundChecks != 2 || s.BoundViolations != 1 || s.BoundSkipped != 1 {
		t.Fatalf("checks=%d violations=%d skipped=%d, want 2/1/1",
			s.BoundChecks, s.BoundViolations, s.BoundSkipped)
	}
}

// TestConcurrentRecordExactTotals is the sharded-counter hammer: many
// goroutines record through independent recorders while snapshots are
// taken concurrently, and after all writers finish the final snapshot
// must account for every single record — striping must never lose
// counts. Run with -race this also proves the access pattern clean.
func TestConcurrentRecordExactTotals(t *testing.T) {
	const (
		writers = 16
		modules = 64
		// A multiple of modules, so each writer's (w+i)%modules sweep is
		// exactly uniform and the final load ratio must be exactly 1.
		perWriter = 160 * modules
	)
	d := NewDomain(modules)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent scraper: exercises Snapshot against live writers.
	var scr sync.WaitGroup
	scr.Add(1)
	go func() {
		defer scr.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := d.Snapshot()
			if s.TotalAccesses < 0 {
				panic("negative total")
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := d.Recorder()
			for i := 0; i < perWriter; i++ {
				r.Access((w+i)%modules, 1)
				if i%100 == 0 {
					r.Batch(int64(i % 3))
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	scr.Wait()

	s := d.Snapshot()
	if want := int64(writers * perWriter); s.TotalAccesses != want {
		t.Fatalf("lost counts: total=%d, want %d", s.TotalAccesses, want)
	}
	if want := int64(writers * ((perWriter + 99) / 100)); s.Batches != want {
		t.Fatalf("lost batches: %d, want %d", s.Batches, want)
	}
	// Every writer spreads uniformly over all modules, so the final load
	// must be perfectly balanced.
	if s.ActiveModules != modules {
		t.Fatalf("active=%d, want %d", s.ActiveModules, modules)
	}
	if s.LoadRatio != 1.0 {
		t.Fatalf("ratio=%v, want exactly 1 for a uniform pattern", s.LoadRatio)
	}
}

func TestRecorderStriping(t *testing.T) {
	d := NewDomain(4)
	seen := map[*stripe]bool{}
	for i := 0; i < stripeCount*2; i++ {
		seen[d.Recorder().s] = true
	}
	if len(seen) != stripeCount {
		t.Fatalf("round-robin visited %d stripes, want %d", len(seen), stripeCount)
	}
}

func TestFamilyIndex(t *testing.T) {
	for i, f := range Families {
		if FamilyIndex(f) != i {
			t.Fatalf("FamilyIndex(%q) = %d, want %d", f, FamilyIndex(f), i)
		}
	}
	if FamilyIndex("Q") != -1 {
		t.Fatal("unknown family did not map to -1")
	}
}
