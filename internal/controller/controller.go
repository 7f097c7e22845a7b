// Package controller closes the loop on the paper's central trade-off.
// COLOR is 1-conflict optimal but pays the canonical-parameter
// addressing cost, LABEL-TREE trades O(D/√(M log M)) conflicts for O(1)
// retrieval and 1+o(1) balance, and the arithmetic baselines are free to
// address but conflict-heavy on the wrong template families. Which side
// of the trade-off wins depends on the *live* template mix — and the
// serving layer observes that mix per registry entry (metrics.ObserveSpec).
//
// The controller is a per-spec policy loop over three stages:
//
//  1. Classify: diff the per-spec S/L/P/C observation and conflict
//     counters since the previous tick into a window Profile (dominant
//     family, conflict rate). Idle entries are skipped.
//  2. Shadow-score: replay a sampled slice of the entry's recent
//     template traffic against each candidate mapping through the
//     production coloring.ColorBatch kernels (scorer.go), with the
//     closed-form Theorem 3/4/6 bounds as a secondary signal.
//  3. Decide with hysteresis (hysteresis.go): migrate only when a
//     candidate beats the currently served mapping by a margin, at most
//     once per dwell period, so an oscillating mix at the margin can
//     never flip-flap a hot entry.
//
// The package owns *policy* only. Mechanics — which specs are live, how
// candidates materialize, how a migration swaps the registry entry and
// persists through the mapstore manifest — are behind the Host
// interface, implemented by internal/server. This keeps the dependency
// arrow pointing one way (server → controller) and makes every policy
// path unit-testable with a fake host.
package controller

import (
	"sync"
	"time"

	"repro/internal/coloring"
	"repro/internal/metrics"
	"repro/internal/template"
)

// Entry identifies one policy-managed registry entry. Key is the
// client-requested spec key — the stable identity of the loop across
// migrations; Effective is the candidate key currently served for it.
type Entry struct {
	Key       string
	Effective string
	Levels    int
}

// Candidate is one mapping the controller may migrate an entry to. Alg,
// M and Levels carry the bound-query parameters (M is the COLOR
// exponent for color, the module count otherwise); Key is the
// candidate's registry key.
type Candidate struct {
	Key    string
	Alg    string
	M      int
	Levels int
}

// Event is one policy outcome, surfaced to the host for metrics and
// logging. Action is "hold" or "migrate"; Scores carries every shadow
// evaluation of the tick (empty when the entry was skipped as idle or
// under-sampled).
type Event struct {
	Key     string
	Action  string
	From    string
	To      string
	Reason  string
	Profile Profile
	Scores  []Score
	Dwell   time.Duration
	Err     error
}

// Host is the mechanics boundary implemented by the serving layer.
type Host interface {
	// Entries lists the live policy-managed entries.
	Entries() []Entry
	// Mix returns the cumulative per-family observation and conflict
	// counters attributed to the entry's requested key.
	Mix(key string) (obs, conf [metrics.NumFamilies]int64, ok bool)
	// Samples returns the entry's recent sampled template instances.
	// The slice is a snapshot; the controller does not mutate it.
	Samples(key string) []template.Instance
	// Candidates enumerates the mappings the entry may migrate to,
	// including the currently effective one.
	Candidates(e Entry) []Candidate
	// Shadow materializes (or returns a cached copy of) the candidate's
	// mapping for scoring. Expensive candidates should be cached by the
	// host — the controller calls this every tick.
	Shadow(c Candidate) (coloring.Mapping, error)
	// Migrate swaps the entry onto the candidate. m is the
	// already-materialized shadow mapping, so migration pays no second
	// build.
	Migrate(e Entry, c Candidate, m coloring.Mapping) error
	// Event reports one policy outcome.
	Event(ev Event)
}

// Profile classifies one observation window of a spec's template mix.
type Profile struct {
	// Dominant is the family label (S|L|P|C) with the most observations
	// in the window, "" for an empty window.
	Dominant string
	// Observations / Conflicts total the window across families.
	Observations int64
	Conflicts    int64
	// Rate is Conflicts / Observations (0 for an empty window).
	Rate float64
}

// Classify reduces per-family window deltas to a Profile.
func Classify(obs, conf [metrics.NumFamilies]int64) Profile {
	var p Profile
	var max int64 = -1
	for i := 0; i < metrics.NumFamilies; i++ {
		p.Observations += obs[i]
		p.Conflicts += conf[i]
		if obs[i] > max {
			max = obs[i]
			p.Dominant = metrics.Families[i]
		}
	}
	if p.Observations == 0 {
		p.Dominant = ""
		return p
	}
	p.Rate = float64(p.Conflicts) / float64(p.Observations)
	return p
}

// Controller runs the policy loop. Tick is safe to call from one
// goroutine (the server's interval loop or a bench harness); per-entry
// state is guarded so status readers may inspect it concurrently. A
// tick works on a copy of each entry's state and publishes it under mu
// once, when the entry's evaluation ends.
type Controller struct {
	cfg  Config
	host Host

	mu    sync.Mutex
	state map[string]State
}

// New builds a controller over the host with the given policy knobs
// (zero-valued fields take the documented defaults).
func New(cfg Config, host Host) *Controller {
	return &Controller{cfg: cfg.withDefaults(), host: host, state: make(map[string]State)}
}

// States returns a copy of the per-entry hysteresis state, keyed by
// requested spec key (for the migration and dwell gauges).
func (c *Controller) States() map[string]State {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]State, len(c.state))
	for k, st := range c.state {
		out[k] = st
	}
	return out
}

// Tick runs one policy evaluation over every live entry and returns the
// number of migrations performed.
func (c *Controller) Tick(now time.Time) (migrations int) {
	for _, e := range c.host.Entries() {
		if c.tickEntry(now, e) {
			migrations++
		}
	}
	return migrations
}

func (c *Controller) tickEntry(now time.Time, e Entry) (migrated bool) {
	c.mu.Lock()
	st, ok := c.state[e.Key]
	c.mu.Unlock()
	if !ok {
		st = State{Current: e.Effective}
	}
	defer func() {
		c.mu.Lock()
		c.state[e.Key] = st
		c.mu.Unlock()
	}()

	// Stage 1: classify the window since the previous tick. An idle
	// entry (no new observations) is held without scoring — shadow
	// evaluation is not free and stale samples carry no new signal.
	obs, conf, haveMix := c.host.Mix(e.Key)
	var profile Profile
	if haveMix {
		var dObs, dConf [metrics.NumFamilies]int64
		for i := 0; i < metrics.NumFamilies; i++ {
			dObs[i] = obs[i] - st.PrevObs[i]
			dConf[i] = conf[i] - st.PrevConf[i]
		}
		profile = Classify(dObs, dConf)
		st.PrevObs, st.PrevConf = obs, conf
	}
	dwell := now.Sub(st.LastMigration)
	if profile.Observations == 0 {
		c.host.Event(Event{Key: e.Key, Action: ActionHold, From: st.Current,
			Reason: "idle window", Profile: profile, Dwell: dwell})
		return false
	}

	// Stage 2: shadow-score every candidate against the sampled traffic.
	samples := c.host.Samples(e.Key)
	var scores []Score
	var current Score
	haveCurrent := false
	for _, cand := range c.host.Candidates(e) {
		m, err := c.host.Shadow(cand)
		if err != nil {
			c.host.Event(Event{Key: e.Key, Action: ActionHold, From: st.Current,
				To: cand.Key, Reason: "shadow build failed", Err: err, Dwell: dwell})
			continue
		}
		sc := ScoreCandidate(cand, m, samples)
		scores = append(scores, sc)
		if cand.Key == st.Current {
			current = sc
			haveCurrent = true
		}
	}
	if !haveCurrent {
		// Without a score for the serving mapping there is no baseline to
		// beat; hold rather than migrate blind.
		c.host.Event(Event{Key: e.Key, Action: ActionHold, From: st.Current,
			Reason: "current mapping not scored", Profile: profile, Scores: scores, Dwell: dwell})
		return false
	}

	// Stage 3: decide under hysteresis and act.
	d := Decide(c.cfg, st, now, current, scores)
	ev := Event{Key: e.Key, Action: d.Action, From: st.Current, To: d.Target.Key,
		Reason: d.Reason, Profile: profile, Scores: scores, Dwell: dwell}
	if d.Action != ActionMigrate {
		c.host.Event(ev)
		return false
	}
	m, err := c.host.Shadow(d.Target)
	if err == nil {
		err = c.host.Migrate(e, d.Target, m)
	}
	if err != nil {
		ev.Action = ActionHold
		ev.Reason = "migration failed"
		ev.Err = err
		c.host.Event(ev)
		return false
	}
	st.Current = d.Target.Key
	st.LastMigration = now
	st.Migrations++
	ev.Dwell = 0
	c.host.Event(ev)
	return true
}
