// Adaptive mapping controller wiring: the mechanics half of
// internal/controller's policy loop. The server side owns
//
//   - per-requested-spec sample reservoirs fed from the template hot
//     paths (bounded rings, stride-sampled so the recording cost on a
//     request is a counter increment most of the time);
//   - candidate enumeration: the requested spec plus every paper
//     mapping that serves the same module count at the same height;
//   - shadow materialization with a small cache, so a tick prices
//     candidates without charging the serving registry's byte budget;
//   - the migration mechanics: Registry.Migrate under the single-flight
//     window, plus persisting the decision into the mapstore manifest so
//     a -store-warm restart re-serves the migrated mapping;
//   - the tick loop and the controller series on /metrics.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coloring"
	ctl "repro/internal/controller"
	"repro/internal/flightrec"
	dm "repro/internal/metrics"
	"repro/internal/template"
)

// EffectiveMappingHeader is set on every response, errors included,
// whose requested mapping validated and is redirected by a controller
// migration; its value is the served key.
const EffectiveMappingHeader = "X-Effective-Mapping"

const (
	// samplerCapacity bounds one spec's reservoir ring.
	samplerCapacity = 512
	// maxSamplers bounds the reservoir table like the per-spec metrics
	// table; specs beyond it are simply not policy-managed.
	maxSamplers = 64
	// shadowCacheMax bounds the shadow mapping cache; the cache is
	// cleared wholesale when full (candidate sets are tiny and rebuilds
	// are off the hot path).
	shadowCacheMax = 16
)

// specSampler is one requested spec's reservoir: a bounded ring of
// recent template instances, refreshed by overwrite so the controller
// replays a sliding window of live traffic rather than startup history.
type specSampler struct {
	spec   MappingSpec // requested (validated) spec
	stride int64
	tick   atomic.Int64

	mu   sync.Mutex
	ring []template.Instance
	next int
}

func (sp *specSampler) offer(in template.Instance) {
	if sp.stride > 1 && sp.tick.Add(1)%sp.stride != 0 {
		return
	}
	sp.mu.Lock()
	if len(sp.ring) < samplerCapacity {
		sp.ring = append(sp.ring, in)
	} else {
		sp.ring[sp.next] = in
		sp.next = (sp.next + 1) % samplerCapacity
	}
	sp.mu.Unlock()
}

func (sp *specSampler) snapshot() []template.Instance {
	sp.mu.Lock()
	out := make([]template.Instance, len(sp.ring))
	copy(out, sp.ring)
	sp.mu.Unlock()
	return out
}

// samplerTable maps requested spec keys to reservoirs. It is bounded:
// once full, new specs are not tracked (and so never policy-managed).
type samplerTable struct {
	stride int64

	mu sync.RWMutex
	m  map[string]*specSampler
}

func (t *samplerTable) get(spec MappingSpec) *specSampler {
	key := spec.Key()
	t.mu.RLock()
	sp := t.m[key]
	t.mu.RUnlock()
	if sp != nil {
		return sp
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if sp = t.m[key]; sp != nil {
		return sp
	}
	if len(t.m) >= maxSamplers {
		return nil
	}
	sp = &specSampler{spec: spec, stride: t.stride}
	t.m[key] = sp
	return sp
}

func (t *samplerTable) lookup(key string) *specSampler {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.m[key]
}

// sample offers one observed template instance to the requested spec's
// reservoir. No-op when the controller is off.
func (s *Server) sample(spec MappingSpec, in template.Instance) {
	if s.ctl == nil {
		return
	}
	if sp := s.ctl.samplers.get(spec); sp != nil {
		sp.offer(in)
	}
}

// resolveSpec validates a client's mapping spec and follows a
// controller migration for it. An invalid spec is answered 400 here, and
// ok is false. A valid one stamps the requested/effective pair on the
// request's record, where the trace and the flight event both read it,
// so forensics can attribute by the mapping actually served; when that
// mapping differs from the requested one, the response advertises it,
// errors included, so probes and clients can observe the switch.
func (s *Server) resolveSpec(w http.ResponseWriter, rec *request, spec MappingSpec) (eff MappingSpec, ok bool) {
	if err := spec.Validate(); err != nil {
		writeError(w, badRequest("mapping: %v", err))
		return MappingSpec{}, false
	}
	eff = s.reg.Resolve(spec)
	rec.requested = spec.Key()
	rec.trace.Mapping = rec.requested
	if eff != spec {
		rec.trace.Mapping = eff.Key()
		w.Header().Set(EffectiveMappingHeader, rec.trace.Mapping)
	}
	return eff, true
}

// observe feeds one served template observation to the domain layer:
// the family histogram, the per-spec counters of the requested key (the
// stable policy identity across migrations), and the theorem-bound check
// against the effective spec, the mapping actually served.
func (s *Server) observe(reqKey string, spec MappingSpec, q dm.BoundQuery, conflicts int) {
	s.dom.ObserveFamily(q.Kind, conflicts)
	s.dom.ObserveSpec(reqKey, q.Kind, conflicts)
	q.Alg, q.M, q.Levels = spec.Alg, spec.M, spec.Levels
	s.dom.CheckBound(q, conflicts)
}

// serverController bundles the controller's server-side state.
type serverController struct {
	s        *Server
	ctrl     *ctl.Controller
	interval time.Duration
	samplers samplerTable

	shadowMu    sync.Mutex
	shadowSpecs map[string]MappingSpec
	shadowMaps  map[string]coloring.Mapping

	status ctrlStatus

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// ctrlStatus holds each spec's last shadow scores for the
// pmsd_controller_shadow_score gauges.
type ctrlStatus struct {
	mu     sync.Mutex
	scores map[string]map[string]float64 // spec key → candidate key → per-sample shadow cost
}

func newServerController(s *Server) *serverController {
	cfg := s.cfg
	stride := int64(1)
	if cfg.ShadowSampleRate > 0 && cfg.ShadowSampleRate < 1 {
		stride = int64(1/cfg.ShadowSampleRate + 0.5)
		if stride < 1 {
			stride = 1
		}
	}
	c := &serverController{
		s:           s,
		interval:    cfg.ControllerInterval,
		samplers:    samplerTable{stride: stride, m: make(map[string]*specSampler)},
		shadowSpecs: make(map[string]MappingSpec),
		shadowMaps:  make(map[string]coloring.Mapping),
		status:      ctrlStatus{scores: make(map[string]map[string]float64)},
		stop:        make(chan struct{}),
	}
	c.ctrl = ctl.New(ctl.Config{
		MinDwell:   cfg.ControllerMinDwell,
		MinSamples: cfg.ControllerMinSamples,
	}, ctrlHost{c})
	return c
}

func (c *serverController) start() {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTicker(c.interval)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case now := <-t.C:
				c.ctrl.Tick(now)
			}
		}
	}()
}

func (c *serverController) stopLoop() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// ControllerTick runs one policy evaluation synchronously and returns
// the number of migrations performed. Tests use it to drive the
// controller without waiting out the ticker.
func (s *Server) ControllerTick(now time.Time) int {
	if s.ctl == nil {
		return 0
	}
	return s.ctl.ctrl.Tick(now)
}

// ctrlHost implements controller.Host over the serving layer.
type ctrlHost struct{ c *serverController }

func (h ctrlHost) Entries() []ctl.Entry {
	c := h.c
	c.samplers.mu.RLock()
	specs := make([]MappingSpec, 0, len(c.samplers.m))
	for _, sp := range c.samplers.m {
		specs = append(specs, sp.spec)
	}
	c.samplers.mu.RUnlock()
	entries := make([]ctl.Entry, 0, len(specs))
	for _, sp := range specs {
		entries = append(entries, ctl.Entry{
			Key:       sp.Key(),
			Effective: c.s.reg.Resolve(sp).Key(),
			Levels:    sp.Levels,
		})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	return entries
}

func (h ctrlHost) Mix(key string) (obs, conf [dm.NumFamilies]int64, ok bool) {
	return h.c.s.dom.SpecCounters(key)
}

func (h ctrlHost) Samples(key string) []template.Instance {
	sp := h.c.samplers.lookup(key)
	if sp == nil {
		return nil
	}
	return sp.snapshot()
}

func (h ctrlHost) Candidates(e ctl.Entry) []ctl.Candidate {
	sp := h.c.samplers.lookup(e.Key)
	if sp == nil {
		return nil
	}
	specs := candidateSpecs(sp.spec)
	out := make([]ctl.Candidate, 0, len(specs))
	h.c.shadowMu.Lock()
	for _, cs := range specs {
		key := cs.Key()
		h.c.shadowSpecs[key] = cs
		out = append(out, ctl.Candidate{Key: key, Alg: cs.Alg, M: boundM(cs), Levels: cs.Levels})
	}
	h.c.shadowMu.Unlock()
	return out
}

func (h ctrlHost) Shadow(cand ctl.Candidate) (coloring.Mapping, error) {
	c := h.c
	c.shadowMu.Lock()
	if m := c.shadowMaps[cand.Key]; m != nil {
		c.shadowMu.Unlock()
		return m, nil
	}
	sp, ok := c.shadowSpecs[cand.Key]
	c.shadowMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("controller: no spec registered for candidate %q", cand.Key)
	}
	m, _, err := sp.build()
	if err != nil {
		return nil, err
	}
	c.shadowMu.Lock()
	if len(c.shadowMaps) >= shadowCacheMax {
		c.shadowMaps = make(map[string]coloring.Mapping)
	}
	c.shadowMaps[cand.Key] = m
	c.shadowMu.Unlock()
	return m, nil
}

func (h ctrlHost) Migrate(e ctl.Entry, cand ctl.Candidate, m coloring.Mapping) error {
	c := h.c
	c.shadowMu.Lock()
	spec, ok := c.shadowSpecs[cand.Key]
	c.shadowMu.Unlock()
	if !ok {
		return fmt.Errorf("controller: no spec registered for candidate %q", cand.Key)
	}
	if _, err := c.s.reg.Migrate(e.Key, spec, m); err != nil {
		return err
	}
	c.s.persistDecision(e.Key, spec)
	return nil
}

func (h ctrlHost) Event(ev ctl.Event) {
	met := h.c.s.met
	met.controllerDecisions.Add(1)
	met.controllerShadowEvals.Add(int64(len(ev.Scores)))
	if ev.Action == ctl.ActionMigrate {
		met.controllerMigrations.Add(1)
	}
	h.c.s.fr.RecordDecision(flightrec.Decision{
		TS:     h.c.s.cfg.flightNow().UnixMicro(),
		Spec:   ev.Key,
		Action: ev.Action,
		From:   ev.From,
		To:     ev.To,
		Reason: ev.Reason,
	})

	if len(ev.Scores) == 0 {
		return
	}
	scores := make(map[string]float64, len(ev.Scores))
	for _, sc := range ev.Scores {
		scores[sc.Candidate.Key] = sc.PerSample
	}
	st := &h.c.status
	st.mu.Lock()
	st.scores[ev.Key] = scores
	st.mu.Unlock()
}

// persistDecision records (or clears, when the effective spec equals the
// requested one) a migration in the mapstore manifest, so a -store-warm
// restart re-applies it before serving traffic.
func (s *Server) persistDecision(fromKey string, eff MappingSpec) {
	if s.cfg.Store == nil {
		return
	}
	if eff.Key() == fromKey {
		_ = s.cfg.Store.SetDecision(fromKey, "")
		return
	}
	raw, err := json.Marshal(eff)
	if err != nil {
		return
	}
	_ = s.cfg.Store.SetDecision(fromKey, string(raw))
}

// candidateSpecs enumerates the mappings a requested spec may migrate
// between: the spec itself plus every paper mapping serving the same
// module count at the same height. COLOR only exists at M = 2^m - 1
// modules, so it is offered only when the module counts line up exactly —
// a migration must never change the module count the client provisioned.
func candidateSpecs(req MappingSpec) []MappingSpec {
	mods := specModules(req)
	out := []MappingSpec{req}
	seen := map[string]bool{req.Key(): true}
	add := func(sp MappingSpec) {
		if sp.Validate() != nil {
			return
		}
		if k := sp.Key(); !seen[k] {
			seen[k] = true
			out = append(out, sp)
		}
	}
	if m, ok := colorExponentFor(mods); ok {
		add(MappingSpec{Alg: "color", Levels: req.Levels, M: m})
	}
	add(MappingSpec{Alg: "labeltree", Levels: req.Levels, Modules: mods})
	add(MappingSpec{Alg: "mod", Levels: req.Levels, Modules: mods})
	add(MappingSpec{Alg: "levelcyclic", Levels: req.Levels, Modules: mods})
	return out
}

// specModules is the module count a spec serves.
func specModules(sp MappingSpec) int {
	if sp.Alg == "color" {
		return (1 << uint(sp.M)) - 1
	}
	return sp.Modules
}

// boundM is the BoundQuery M parameter: the COLOR exponent for color
// (the only alg with closed-form bounds), the module count otherwise.
func boundM(sp MappingSpec) int {
	if sp.Alg == "color" {
		return sp.M
	}
	return sp.Modules
}

// colorExponentFor inverts modules = 2^m - 1 within the validated
// exponent range.
func colorExponentFor(modules int) (int, bool) {
	for m := minColorM; m <= maxColorM; m++ {
		if (1<<uint(m))-1 == modules {
			return m, true
		}
	}
	return 0, false
}

// ControllerSnapshot is the per-spec policy state the controller series
// on /metrics render.
type ControllerSnapshot struct {
	Entries []ControllerEntrySnapshot
}

// ControllerEntrySnapshot is one policy-managed spec's state.
type ControllerEntrySnapshot struct {
	Spec         string
	Migrations   int64
	DwellSeconds float64
	Scores       map[string]float64 // candidate key → per-sample shadow cost
}

// snapshot renders the controller state for /metrics.
func (c *serverController) snapshot() *ControllerSnapshot {
	now := time.Now()
	states := c.ctrl.States()

	c.status.mu.Lock()
	out := &ControllerSnapshot{}
	keys := make([]string, 0, len(states))
	for k := range states {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		st := states[k]
		en := ControllerEntrySnapshot{
			Spec:       k,
			Migrations: st.Migrations,
		}
		if !st.LastMigration.IsZero() {
			en.DwellSeconds = now.Sub(st.LastMigration).Seconds()
		}
		// Event replaces a spec's score map whole and never writes to it
		// afterwards, so the snapshot can share it.
		en.Scores = c.status.scores[k]
		out.Entries = append(out.Entries, en)
	}
	c.status.mu.Unlock()
	return out
}
