package controller

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/coloring"
	"repro/internal/metrics"
	"repro/internal/template"
	"repro/internal/tree"
)

func flatMapping(levels, m int) coloring.Mapping {
	return coloring.FuncMapping{Fn: func(tree.Node) int { return 0 },
		M: m, T: tree.New(levels), AlgName: "flat"}
}

func levelMapping(levels, m int) coloring.Mapping {
	return coloring.FuncMapping{Fn: func(n tree.Node) int { return n.Level % m },
		M: m, T: tree.New(levels), AlgName: "bylevel"}
}

func pathSamples(n, anchorLevel int, size int64) []template.Instance {
	out := make([]template.Instance, n)
	for i := range out {
		out[i] = template.Instance{Kind: template.Path,
			Anchor: tree.V(int64(i)%(1<<anchorLevel), anchorLevel), Size: size}
	}
	return out
}

func TestClassify(t *testing.T) {
	var zero [metrics.NumFamilies]int64
	p := Classify(zero, zero)
	if p.Dominant != "" || p.Observations != 0 || p.Rate != 0 {
		t.Errorf("empty window classified as %+v", p)
	}

	obs := [metrics.NumFamilies]int64{3, 1, 10, 2} // S, L, P, C
	conf := [metrics.NumFamilies]int64{0, 0, 7, 1}
	p = Classify(obs, conf)
	if p.Dominant != "P" {
		t.Errorf("dominant = %q, want P", p.Dominant)
	}
	if p.Observations != 16 || p.Conflicts != 8 {
		t.Errorf("totals = %d obs / %d conf", p.Observations, p.Conflicts)
	}
	if p.Rate != 0.5 {
		t.Errorf("rate = %v, want 0.5", p.Rate)
	}
}

func score(key string, perSample float64, samples int, bound int64) Score {
	return Score{Candidate: Candidate{Key: key}, Samples: samples,
		PerSample: perSample, Bound: bound}
}

func TestDecideDwellWindow(t *testing.T) {
	cfg := Config{MinDwell: time.Minute, MinSamples: 1}
	now := time.Unix(1000, 0)
	st := State{Current: "A", LastMigration: now.Add(-30 * time.Second)}
	cur := score("A", 10, 100, 0)
	ch := score("B", 1, 100, 0) // overwhelming win — still rate-limited
	if d := Decide(cfg, st, now, cur, []Score{cur, ch}); d.Action != ActionHold {
		t.Errorf("within dwell: %+v, want hold", d)
	}
	st.LastMigration = now.Add(-2 * time.Minute)
	if d := Decide(cfg, st, now, cur, []Score{cur, ch}); d.Action != ActionMigrate || d.Target.Key != "B" {
		t.Errorf("past dwell: %+v, want migrate to B", d)
	}
}

func TestDecideMinSamples(t *testing.T) {
	cfg := Config{MinSamples: 16}
	now := time.Unix(1000, 0)
	st := State{Current: "A"}
	cur := score("A", 10, 100, 0)
	if d := Decide(cfg, st, now, cur, []Score{cur, score("B", 1, 15, 0)}); d.Action != ActionHold {
		t.Errorf("under-sampled challenger migrated: %+v", d)
	}
	if d := Decide(cfg, st, now, cur, []Score{cur, score("B", 1, 16, 0)}); d.Action != ActionMigrate {
		t.Errorf("sampled challenger held: %+v", d)
	}
}

func TestDecideDoubleMargin(t *testing.T) {
	cfg := Config{MinSamples: 1, MinImprovement: 0.25, MinDelta: 0.05}
	now := time.Unix(1000, 0)
	st := State{Current: "A"}

	// Relative margin alone is not enough: 50% better but only 0.04 abs.
	cur := score("A", 0.08, 100, 0)
	if d := Decide(cfg, st, now, cur, []Score{cur, score("B", 0.04, 100, 0)}); d.Action != ActionHold {
		t.Errorf("sub-MinDelta gain migrated: %+v", d)
	}
	// Absolute margin alone is not enough: 0.5 abs but only 5% better.
	cur = score("A", 10, 100, 0)
	if d := Decide(cfg, st, now, cur, []Score{cur, score("B", 9.5, 100, 0)}); d.Action != ActionHold {
		t.Errorf("sub-MinImprovement gain migrated: %+v", d)
	}
	// Both margins cleared.
	if d := Decide(cfg, st, now, cur, []Score{cur, score("B", 7, 100, 0)}); d.Action != ActionMigrate {
		t.Errorf("qualified challenger held: %+v", d)
	}
}

func TestDecideZeroCostServingUnbeatable(t *testing.T) {
	cfg := Config{MinSamples: 1}
	now := time.Unix(1000, 0)
	st := State{Current: "A"}
	cur := score("A", 0, 100, 0)
	if d := Decide(cfg, st, now, cur, []Score{cur, score("B", 0, 100, 0)}); d.Action != ActionHold {
		t.Errorf("zero-conflict serving mapping displaced: %+v", d)
	}
}

func TestDecideTieBreakDeterministic(t *testing.T) {
	cfg := Config{MinSamples: 1}
	now := time.Unix(1000, 0)
	st := State{Current: "A"}
	cur := score("A", 10, 100, 0)
	// Equal replay cost: the lower closed-form bound sum wins.
	b, c := score("B", 1, 100, 50), score("C", 1, 100, 40)
	if d := Decide(cfg, st, now, cur, []Score{cur, b, c}); d.Target.Key != "C" {
		t.Errorf("bound tie-break picked %q, want C", d.Target.Key)
	}
	// Equal cost and bound: the lexicographically smaller key wins,
	// whatever the enumeration order.
	b, c = score("B", 1, 100, 40), score("C", 1, 100, 40)
	if d := Decide(cfg, st, now, cur, []Score{cur, c, b}); d.Target.Key != "B" {
		t.Errorf("key tie-break picked %q, want B", d.Target.Key)
	}
}

// TestDecideNoFlipFlapAtMargin is the core hysteresis property: a mix
// oscillating by less than the double margin can never migrate, even
// with the dwell window fully elapsed every round. The roles swap after
// any migration, so an oscillation that clears the margin one way would
// need to clear it again the other way — impossible when its amplitude
// is below the margin.
func TestDecideNoFlipFlapAtMargin(t *testing.T) {
	cfg := Config{MinDwell: time.Second, MinSamples: 1,
		MinImprovement: 0.25, MinDelta: 0.05}
	now := time.Unix(1000, 0)
	st := State{Current: "A"}
	base := map[string]float64{"A": 1.00, "B": 1.00}
	for round := 0; round < 50; round++ {
		// Amplitude 0.04 < MinDelta, alternating winner.
		osc := 0.04
		if round%2 == 1 {
			osc = -osc
		}
		a := score("A", base["A"]+osc, 100, 0)
		b := score("B", base["B"]-osc, 100, 0)
		cur := a
		if st.Current == "B" {
			cur = b
		}
		now = now.Add(10 * cfg.MinDwell) // dwell never the limiter
		d := Decide(cfg, st, now, cur, []Score{a, b})
		if d.Action == ActionMigrate {
			t.Fatalf("round %d: flip-flap migration %s -> %s on sub-margin oscillation",
				round, st.Current, d.Target.Key)
		}
	}
}

// TestDecideLargeOscillationRateLimited: an oscillation large enough to
// clear the margin still migrates at most once per dwell window.
func TestDecideLargeOscillationRateLimited(t *testing.T) {
	cfg := Config{MinDwell: time.Minute, MinSamples: 1,
		MinImprovement: 0.25, MinDelta: 0.05}
	now := time.Unix(1000, 0)
	st := State{Current: "A"}
	migrations := 0
	for round := 0; round < 60; round++ {
		// Swing far past both margins, alternating winner every round.
		pa, pb := 10.0, 1.0
		if round%2 == 1 {
			pa, pb = 1.0, 10.0
		}
		a, b := score("A", pa, 100, 0), score("B", pb, 100, 0)
		cur, scores := a, []Score{a, b}
		if st.Current == "B" {
			cur = b
		}
		now = now.Add(10 * time.Second) // 6 rounds per dwell window
		d := Decide(cfg, st, now, cur, scores)
		if d.Action == ActionMigrate {
			migrations++
			st.Current = d.Target.Key
			st.LastMigration = now
			st.Migrations++
		}
	}
	// 60 rounds * 10s = 600s of simulated time, one migration per 60s
	// window at most (plus the initial unclocked one).
	if migrations > 11 {
		t.Errorf("%d migrations in 600s with a 60s dwell — not rate-limited", migrations)
	}
	if migrations == 0 {
		t.Error("over-margin oscillation never migrated")
	}
}

func TestScoreCandidateReplaysConflicts(t *testing.T) {
	const levels, m = 6, 3
	samples := pathSamples(8, 2, 3) // 3-node root paths
	flat := ScoreCandidate(Candidate{Key: "flat", Alg: "mod", M: m, Levels: levels},
		flatMapping(levels, m), samples)
	if flat.Samples != 8 {
		t.Fatalf("replayed %d samples, want 8", flat.Samples)
	}
	// All 3 path nodes land in module 0: 2 conflicts per instance.
	if flat.Conflicts != 16 || flat.PerSample != 2 {
		t.Errorf("flat score = %d conflicts, %.2f/sample; want 16, 2.00",
			flat.Conflicts, flat.PerSample)
	}
	if flat.Bounded != 0 {
		t.Errorf("mod candidate claimed %d closed-form bounds", flat.Bounded)
	}

	lvl := ScoreCandidate(Candidate{Key: "bylevel", Alg: "mod", M: m, Levels: levels},
		levelMapping(levels, m), samples)
	// Path levels 0,1,2 hit distinct modules: conflict-free.
	if lvl.Conflicts != 0 || lvl.PerSample != 0 {
		t.Errorf("bylevel score = %d conflicts, %.2f/sample; want 0", lvl.Conflicts, lvl.PerSample)
	}
}

func TestScoreCandidateSkipsInvalidSamples(t *testing.T) {
	const levels, m = 4, 3
	samples := pathSamples(4, 2, 3)
	// Anchored below the candidate tree's leaf level: must be skipped,
	// not charged or crashed on.
	samples = append(samples, template.Instance{Kind: template.Path, Anchor: tree.V(0, 9), Size: 2})
	sc := ScoreCandidate(Candidate{Key: "flat", Alg: "mod", M: m, Levels: levels},
		flatMapping(levels, m), samples)
	if sc.Samples != 4 {
		t.Errorf("replayed %d samples, want 4 (invalid skipped)", sc.Samples)
	}
	empty := ScoreCandidate(Candidate{Key: "x"}, nil, samples)
	if empty.Samples != 0 || empty.PerSample != 0 {
		t.Errorf("nil mapping scored: %+v", empty)
	}
}

// TestScoreCandidateBoundsMatchClosedForm: where Theorem 3/4/6 applies
// the scorer's bound column must agree with metrics.ConflictBound.
func TestScoreCandidateBoundsMatchClosedForm(t *testing.T) {
	const levels = 10
	cand := Candidate{Key: "color", Alg: "color", M: 3, Levels: levels}
	samples := pathSamples(6, 2, 3)
	sc := ScoreCandidate(cand, levelMapping(levels, 7), samples)
	var wantBound int64
	wantBounded := 0
	for _, in := range samples {
		if b, ok := metrics.ConflictBound(metrics.BoundQuery{
			Alg: cand.Alg, M: cand.M, Levels: cand.Levels,
			Kind: in.Kind.String(), Size: in.Size,
		}); ok {
			wantBound += int64(b)
			wantBounded++
		}
	}
	if sc.Bound != wantBound || sc.Bounded != wantBounded {
		t.Errorf("scorer bounds %d over %d samples, closed form says %d over %d",
			sc.Bound, sc.Bounded, wantBound, wantBounded)
	}
}

// fakeHost drives Controller.Tick without a server.
type fakeHost struct {
	entries    []Entry
	obs, conf  map[string][metrics.NumFamilies]int64
	samples    map[string][]template.Instance
	candidates map[string][]Candidate
	shadows    map[string]coloring.Mapping
	shadowErr  map[string]error
	migrateErr error

	migrated []string // "<key>-><candidate>"
	events   []Event
}

func (f *fakeHost) Entries() []Entry { return f.entries }

func (f *fakeHost) Mix(key string) (obs, conf [metrics.NumFamilies]int64, ok bool) {
	o, ok := f.obs[key]
	if !ok {
		return obs, conf, false
	}
	return o, f.conf[key], true
}

func (f *fakeHost) Samples(key string) []template.Instance { return f.samples[key] }

func (f *fakeHost) Candidates(e Entry) []Candidate { return f.candidates[e.Key] }

func (f *fakeHost) Shadow(c Candidate) (coloring.Mapping, error) {
	if err := f.shadowErr[c.Key]; err != nil {
		return nil, err
	}
	return f.shadows[c.Key], nil
}

func (f *fakeHost) Migrate(e Entry, c Candidate, m coloring.Mapping) error {
	if f.migrateErr != nil {
		return f.migrateErr
	}
	if m == nil {
		return errors.New("migrate without a prebuilt mapping")
	}
	f.migrated = append(f.migrated, e.Key+"->"+c.Key)
	return nil
}

func (f *fakeHost) Event(ev Event) { f.events = append(f.events, ev) }

func (f *fakeHost) lastEvent() Event {
	if len(f.events) == 0 {
		return Event{}
	}
	return f.events[len(f.events)-1]
}

const hotKey = "mod/H=6/M=3"

func newFakeHost() *fakeHost {
	const levels = 6
	f := &fakeHost{
		entries: []Entry{{Key: hotKey, Effective: "flat", Levels: levels}},
		obs:     map[string][metrics.NumFamilies]int64{},
		conf:    map[string][metrics.NumFamilies]int64{},
		samples: map[string][]template.Instance{hotKey: pathSamples(32, 2, 3)},
		candidates: map[string][]Candidate{hotKey: {
			{Key: "flat", Alg: "mod", M: 3, Levels: levels},
			{Key: "bylevel", Alg: "mod", M: 3, Levels: levels},
		}},
		shadows: map[string]coloring.Mapping{
			"flat":    flatMapping(levels, 3),
			"bylevel": levelMapping(levels, 3),
		},
		shadowErr: map[string]error{},
	}
	return f
}

// addTraffic advances the cumulative counters, opening a non-idle window.
func (f *fakeHost) addTraffic(key string, obs, conf int64) {
	o, c := f.obs[key], f.conf[key]
	o[2] += obs // P family
	c[2] += conf
	f.obs[key], f.conf[key] = o, c
}

func testConfig() Config {
	return Config{MinDwell: time.Minute, MinSamples: 4,
		MinImprovement: 0.25, MinDelta: 0.05}
}

func TestTickIdleWindowHolds(t *testing.T) {
	f := newFakeHost()
	ctrl := New(testConfig(), f)
	// No counters at all, then counters present but unchanged between ticks.
	if n := ctrl.Tick(time.Unix(1000, 0)); n != 0 {
		t.Fatalf("%d migrations on missing mix", n)
	}
	if ev := f.lastEvent(); ev.Action != ActionHold || ev.Reason != "idle window" {
		t.Errorf("missing-mix event = %+v", ev)
	}
	if len(f.migrated) != 0 {
		t.Fatalf("idle entry migrated: %v", f.migrated)
	}
}

func TestTickMigratesAndDwells(t *testing.T) {
	f := newFakeHost()
	ctrl := New(testConfig(), f)
	now := time.Unix(1000, 0)

	// Flat serving mapping conflicts on every path; bylevel is free.
	f.addTraffic(hotKey, 100, 200)
	if n := ctrl.Tick(now); n != 1 {
		t.Fatalf("%d migrations, want 1 (events: %+v)", n, f.events)
	}
	if len(f.migrated) != 1 || f.migrated[0] != hotKey+"->bylevel" {
		t.Fatalf("migrated %v, want [%s->bylevel]", f.migrated, hotKey)
	}
	ev := f.lastEvent()
	if ev.Action != ActionMigrate || ev.To != "bylevel" || ev.Profile.Dominant != "P" {
		t.Errorf("migration event = %+v", ev)
	}
	st := ctrl.States()[hotKey]
	if st.Current != "bylevel" || st.Migrations != 1 {
		t.Errorf("state after migration = %+v", st)
	}

	// More hot traffic immediately after: held by the dwell window even
	// though the scores have not changed shape.
	f.addTraffic(hotKey, 100, 200)
	if n := ctrl.Tick(now.Add(time.Second)); n != 0 {
		t.Fatalf("re-migrated within dwell")
	}
	// And with the window idle, held as idle rather than rescored.
	if ctrl.Tick(now.Add(2*time.Second)) != 0 || f.lastEvent().Reason != "idle window" {
		t.Errorf("idle re-tick = %+v", f.lastEvent())
	}

	// Past the dwell the roles have swapped: bylevel serves conflict-free
	// replay, so flat can never win back — no flip-flap.
	f.addTraffic(hotKey, 100, 0)
	if n := ctrl.Tick(now.Add(2 * time.Minute)); n != 0 {
		t.Fatalf("flip-flapped back to flat")
	}
}

func TestTickHoldsWhenCurrentNotScored(t *testing.T) {
	f := newFakeHost()
	f.shadowErr["flat"] = errors.New("artifact corrupt")
	ctrl := New(testConfig(), f)
	f.addTraffic(hotKey, 100, 200)
	if n := ctrl.Tick(time.Unix(1000, 0)); n != 0 {
		t.Fatalf("migrated without a serving baseline")
	}
	if ev := f.lastEvent(); ev.Reason != "current mapping not scored" {
		t.Errorf("event = %+v", ev)
	}
}

func TestTickMigrationFailureHoldsState(t *testing.T) {
	f := newFakeHost()
	f.migrateErr = errors.New("registry shutting down")
	ctrl := New(testConfig(), f)
	f.addTraffic(hotKey, 100, 200)
	if n := ctrl.Tick(time.Unix(1000, 0)); n != 0 {
		t.Fatalf("counted a failed migration")
	}
	ev := f.lastEvent()
	if ev.Action != ActionHold || ev.Reason != "migration failed" || ev.Err == nil {
		t.Errorf("failure event = %+v", ev)
	}
	st := ctrl.States()[hotKey]
	if st.Current != "flat" || st.Migrations != 0 {
		t.Errorf("state mutated by failed migration: %+v", st)
	}
	// The failure must not burn the dwell window: clearing the error lets
	// the very next tick migrate.
	f.migrateErr = nil
	f.addTraffic(hotKey, 100, 200)
	if n := ctrl.Tick(time.Unix(1001, 0)); n != 1 {
		t.Fatalf("retry after failed migration held: %+v", f.lastEvent())
	}
}

// TestStatesReadDuringTicks reads States() in a loop, as every /metrics
// scrape of a -controller pmsd does, while Tick runs over fresh traffic.
// Tick writes the entry's state; under -race any write outside c.mu
// shows up here. The Gosched calls interleave the two goroutines even
// on one core.
func TestStatesReadDuringTicks(t *testing.T) {
	f := newFakeHost()
	ctrl := New(testConfig(), f)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = ctrl.States()
			runtime.Gosched()
		}
	}()
	now := time.Unix(1000, 0)
	const ticks = 200
	for i := 0; i < ticks; i++ {
		f.addTraffic(hotKey, 100, 200)
		ctrl.Tick(now.Add(time.Duration(i) * time.Second))
		runtime.Gosched()
	}
	close(stop)
	<-done
	st := ctrl.States()[hotKey]
	if st.Current != "bylevel" || st.Migrations != 1 {
		t.Errorf("state after %d ticks = %+v, want one migration to bylevel", ticks, st)
	}
	if st.PrevObs[2] != ticks*100 || st.PrevConf[2] != ticks*200 {
		t.Errorf("window baseline = obs %d conf %d, want %d and %d",
			st.PrevObs[2], st.PrevConf[2], ticks*100, ticks*200)
	}
}
