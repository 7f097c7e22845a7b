// Package metrics is the domain-observability layer of the repository:
// where internal/obsv watches the *serving* path (how long a request
// spent in which stage), this package watches the *model* — which memory
// modules the served workload actually hits, how many conflicts each
// template family incurs, and whether any observed access pattern ever
// exceeds the paper's closed-form theorem bounds.
//
// Three pieces compose:
//
//   - Domain / Recorder: sharded, allocation-free per-module access and
//     conflict counters. Recording is one atomic add per touched module;
//     recorders are striped across independent counter banks so
//     concurrent simulator engines and batch workers do not contend on
//     the same cache lines. The pms and scheduler engines accept a
//     Recorder and tick it on their submit paths.
//   - Per-family conflict histograms: every template-cost evaluation
//     feeds its observed conflict count into an S/L/P/C histogram
//     (reusing obsv's power-of-two Histogram, so all histograms in the
//     system bucket identically).
//   - The bound monitor (bounds.go): each template-cost observation is
//     compared against the closed-form Theorem 4/6 bound for its
//     (mapping, template); a violation ticks a counter that must stay
//     zero, turning the paper's theorems into a production invariant.
//
// Everything is exported through DomainSnapshot and FamilyHist, rendered
// by the serving layer's GET /metrics Prometheus endpoint (prom.go holds
// both the text exposition writer and the matching parser used by
// cmd/pmsstat).
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obsv"
)

// stripeCount is the number of independent counter banks. Recorders are
// dealt round-robin across stripes, so up to stripeCount concurrent
// writers tick disjoint cache lines; snapshots sum across stripes.
const stripeCount = 8

// DefaultMaxModules bounds the per-module counter arrays (and therefore
// the per-module series cardinality of the Prometheus exposition).
// Accesses to modules at or above the bound are still counted, in the
// aggregate Overflow counter. The paper's parameterizations use module
// counts in the tens; 1024 leaves generous headroom.
const DefaultMaxModules = 1024

// familyCount indexes the per-family conflict histograms: the paper's
// S, L, P elementary templates plus the composite C template.
const familyCount = 4

// NumFamilies exports the family count for callers sizing per-family
// arrays against Families (the adaptive controller's mix windows).
const NumFamilies = familyCount

// Families lists the template-family labels in histogram index order.
var Families = [familyCount]string{"S", "L", "P", "C"}

// FamilyIndex maps a template-family label (S|L|P|C) to its histogram
// index, or -1 for an unknown label.
func FamilyIndex(family string) int {
	for i, f := range Families {
		if f == family {
			return i
		}
	}
	return -1
}

// DefaultMaxSpecs bounds the per-spec attribution table (and therefore
// the per-spec series cardinality of the Prometheus exposition). One
// slot is reserved for OverflowSpec, which absorbs observations for
// every spec beyond the bound.
const DefaultMaxSpecs = 64

// OverflowSpec is the spec key that absorbs observations once the
// bounded per-spec table is full, mirroring the serving layer's
// overflow-tenant convention.
const OverflowSpec = "other"

// specStats accumulates one registry entry's live template mix:
// per-family observation counts and conflict sums, keyed by the entry's
// normalized mapping-spec key. The adaptive controller classifies a
// spec's workload from exactly these counters.
type specStats struct {
	observations [familyCount]atomic.Int64
	conflicts    [familyCount]atomic.Int64
}

// stripe is one counter bank. The trailing pad keeps adjacent stripes'
// scalar counters on distinct cache lines; the per-module slices are
// separate allocations and need no padding between stripes.
type stripe struct {
	accesses  []atomic.Int64 // per-module access counts
	conflicts atomic.Int64   // simulator batch conflicts (max load - 1 per batch)
	batches   atomic.Int64   // parallel batches accounted
	overflow  atomic.Int64   // accesses to modules >= len(accesses)
	_         [64]byte
}

// Domain aggregates the model-level counters of one process. Safe for
// arbitrary concurrency. A nil *Domain is a valid disabled domain: every
// method no-ops and Recorder returns a disabled Recorder, so callers
// wire it through unconditionally.
type Domain struct {
	maxModules int
	next       atomic.Uint32 // round-robin stripe cursor for Recorder
	stripes    [stripeCount]stripe

	families [familyCount]obsv.Histogram

	maxSpecs int
	specsMu  sync.RWMutex
	specs    map[string]*specStats

	boundChecks     atomic.Int64
	boundViolations atomic.Int64
	boundSkipped    atomic.Int64
}

// NewDomain builds a domain sized for maxModules per-module counters
// (DefaultMaxModules when <= 0).
func NewDomain(maxModules int) *Domain {
	if maxModules <= 0 {
		maxModules = DefaultMaxModules
	}
	d := &Domain{
		maxModules: maxModules,
		maxSpecs:   DefaultMaxSpecs,
		specs:      make(map[string]*specStats),
	}
	for i := range d.stripes {
		d.stripes[i].accesses = make([]atomic.Int64, maxModules)
	}
	return d
}

// Recorder returns a recorder bound to one stripe, dealt round-robin.
// Recorders are plain values (no allocation) and are cheap enough to
// create per request; a single recorder must not be shared by goroutines
// that record concurrently at high rate (they would contend on one
// stripe — correctness is unaffected). The nil domain returns a disabled
// Recorder whose methods no-op.
func (d *Domain) Recorder() Recorder {
	if d == nil {
		return Recorder{}
	}
	return Recorder{d: d, s: &d.stripes[d.next.Add(1)%stripeCount]}
}

// Recorder is the allocation-free write handle to one Domain stripe.
// The zero Recorder is disabled: every method no-ops.
type Recorder struct {
	d *Domain
	s *stripe
}

// Enabled reports whether records reach a live Domain.
func (r Recorder) Enabled() bool { return r.d != nil }

// Access records n accesses landing on the given module. Out-of-range
// modules count toward the aggregate overflow instead of a per-module
// series.
func (r Recorder) Access(module int, n int64) {
	if r.d == nil || n == 0 {
		return
	}
	if module < 0 || module >= r.d.maxModules {
		r.s.overflow.Add(n)
		return
	}
	r.s.accesses[module].Add(n)
}

// Batch records one parallel batch with the given conflict count
// (max module load - 1; the paper's per-access cost).
func (r Recorder) Batch(conflicts int64) {
	if r.d == nil {
		return
	}
	r.s.batches.Add(1)
	if conflicts > 0 {
		r.s.conflicts.Add(conflicts)
	}
}

// ObserveFamily records one template-cost observation: the conflict
// count of a costed instance (or family worst case) of the given family
// label (S|L|P|C). Unknown labels are ignored.
func (d *Domain) ObserveFamily(family string, conflicts int) {
	if d == nil {
		return
	}
	if i := FamilyIndex(family); i >= 0 {
		d.families[i].Observe(int64(conflicts))
	}
}

// ObserveSpec attributes one template-cost observation to a registry
// entry: the conflict count of a costed instance of the given family
// (S|L|P|C), keyed by the entry's normalized spec key. The table is
// bounded at DefaultMaxSpecs; observations beyond the bound land on the
// OverflowSpec key. Unknown family labels and empty keys are ignored.
func (d *Domain) ObserveSpec(key, family string, conflicts int) {
	if d == nil || key == "" {
		return
	}
	fi := FamilyIndex(family)
	if fi < 0 {
		return
	}
	st := d.spec(key)
	st.observations[fi].Add(1)
	if conflicts > 0 {
		st.conflicts[fi].Add(int64(conflicts))
	}
}

// spec returns (creating on first use) the stats slot for key, spilling
// to the reserved OverflowSpec slot once the table is full.
func (d *Domain) spec(key string) *specStats {
	d.specsMu.RLock()
	st := d.specs[key]
	d.specsMu.RUnlock()
	if st != nil {
		return st
	}
	d.specsMu.Lock()
	defer d.specsMu.Unlock()
	if st = d.specs[key]; st != nil {
		return st
	}
	// Reserve the last slot for the overflow key so attribution never
	// silently drops once the table saturates.
	if key != OverflowSpec && len(d.specs) >= d.maxSpecs-1 {
		key = OverflowSpec
		if st = d.specs[key]; st != nil {
			return st
		}
	}
	st = &specStats{}
	d.specs[key] = st
	return st
}

// SpecCounters returns the live per-family observation and conflict
// counters attributed to one spec key, and whether the key has a slot.
// The controller's classifier diffs successive reads to form windows.
func (d *Domain) SpecCounters(key string) (obs, conf [familyCount]int64, ok bool) {
	if d == nil {
		return obs, conf, false
	}
	d.specsMu.RLock()
	st := d.specs[key]
	d.specsMu.RUnlock()
	if st == nil {
		return obs, conf, false
	}
	for i := 0; i < familyCount; i++ {
		obs[i] = st.observations[i].Load()
		conf[i] = st.conflicts[i].Load()
	}
	return obs, conf, true
}

// SpecKeys returns the spec keys currently holding attribution slots,
// sorted, so the controller can enumerate live entries.
func (d *Domain) SpecKeys() []string {
	if d == nil {
		return nil
	}
	d.specsMu.RLock()
	keys := make([]string, 0, len(d.specs))
	for k := range d.specs {
		keys = append(keys, k)
	}
	d.specsMu.RUnlock()
	sort.Strings(keys)
	return keys
}

// CheckBound compares an observed conflict count against the closed-form
// theorem bound for its query, when one applies. Returns true when the
// observation violated an applicable bound (the counter that must stay
// zero). Queries outside the theorems' preconditions tick the skipped
// counter instead of silently passing.
func (d *Domain) CheckBound(q BoundQuery, observed int) (violated bool) {
	if d == nil {
		return false
	}
	bound, ok := ConflictBound(q)
	if !ok {
		d.boundSkipped.Add(1)
		return false
	}
	d.boundChecks.Add(1)
	if observed > bound {
		d.boundViolations.Add(1)
		return true
	}
	return false
}

// Counters reads the aggregate conflict and bound-monitor counters
// without building a full Snapshot: a handful of atomic loads, cheap
// enough for per-request use (the flight recorder stamps them onto
// every event). Nil-safe.
func (d *Domain) Counters() (conflicts, boundChecks, boundViolations int64) {
	if d == nil {
		return 0, 0, 0
	}
	for i := range d.stripes {
		conflicts += d.stripes[i].conflicts.Load()
	}
	return conflicts, d.boundChecks.Load(), d.boundViolations.Load()
}

// AccessTotals sums the per-module access counters (plus overflow)
// across stripes without the rest of Snapshot's work. Nil-safe.
func (d *Domain) AccessTotals() (accesses, overflow int64) {
	if d == nil {
		return 0, 0
	}
	for i := range d.stripes {
		st := &d.stripes[i]
		for mod := range st.accesses {
			accesses += st.accesses[mod].Load()
		}
		overflow += st.overflow.Load()
	}
	return accesses, overflow
}

// SpecFamily is one family's share of a spec's attributed mix.
type SpecFamily struct {
	Family       string `json:"family"`
	Observations int64  `json:"observations"`
	Conflicts    int64  `json:"conflicts"`
}

// SpecSnapshot is the exported per-spec template mix of one registry
// entry: which families its live traffic exercises and how many
// conflicts each family has accumulated.
type SpecSnapshot struct {
	Key      string       `json:"key"`
	Families []SpecFamily `json:"families"`
}

// DomainSnapshot is the exported form of a Domain: per-module loads, the
// derived load-balance gauges, per-spec mix attribution and the bound
// monitor counters. The family conflict histograms are read through
// FamilyHist.
type DomainSnapshot struct {
	// ModuleAccesses[i] is the access count of module i, trimmed to the
	// highest touched module.
	ModuleAccesses []int64 `json:"module_accesses"`
	// TotalAccesses sums ModuleAccesses (overflow excluded).
	TotalAccesses int64 `json:"total_accesses"`
	// Overflow counts accesses to modules beyond the counter bound.
	Overflow int64 `json:"overflow"`
	// ActiveModules is the number of modules with at least one access.
	ActiveModules int `json:"active_modules"`
	// MaxLoad / MaxModule locate the hottest module.
	MaxLoad   int64 `json:"max_load"`
	MaxModule int   `json:"max_module"`
	// MeanLoad is TotalAccesses / ActiveModules (0 when idle).
	MeanLoad float64 `json:"mean_load"`
	// LoadRatio is MaxLoad / MeanLoad — the observed analogue of the
	// paper's memory-load balance ratio; 1.0 is perfectly balanced.
	LoadRatio float64 `json:"load_ratio"`

	// Batches / Conflicts aggregate the simulator engines' accounting.
	Batches   int64 `json:"batches"`
	Conflicts int64 `json:"conflicts"`

	// Specs attributes the family mix per registry entry (bounded table;
	// the "other" key absorbs overflow), sorted by key.
	Specs []SpecSnapshot `json:"specs,omitempty"`

	BoundChecks     int64 `json:"bound_checks"`
	BoundViolations int64 `json:"bound_violations"`
	BoundSkipped    int64 `json:"bound_checks_skipped"`
}

// Snapshot sums the stripes into one consistent-enough view (individual
// counters are read atomically; cross-counter skew during concurrent
// recording is acceptable). Nil-safe: a disabled domain reports zeroes.
func (d *Domain) Snapshot() DomainSnapshot {
	var s DomainSnapshot
	if d == nil {
		return s
	}
	loads := make([]int64, d.maxModules)
	for i := range d.stripes {
		st := &d.stripes[i]
		for mod := range st.accesses {
			loads[mod] += st.accesses[mod].Load()
		}
		s.Conflicts += st.conflicts.Load()
		s.Batches += st.batches.Load()
		s.Overflow += st.overflow.Load()
	}
	top := 0
	for mod, n := range loads {
		if n == 0 {
			continue
		}
		top = mod + 1
		s.ActiveModules++
		s.TotalAccesses += n
		if n > s.MaxLoad {
			s.MaxLoad = n
			s.MaxModule = mod
		}
	}
	s.ModuleAccesses = loads[:top]
	if s.ActiveModules > 0 {
		s.MeanLoad = float64(s.TotalAccesses) / float64(s.ActiveModules)
		s.LoadRatio = float64(s.MaxLoad) / s.MeanLoad
	}
	for _, key := range d.SpecKeys() {
		obs, conf, ok := d.SpecCounters(key)
		if !ok {
			continue
		}
		sp := SpecSnapshot{Key: key}
		for i := 0; i < familyCount; i++ {
			if obs[i] == 0 && conf[i] == 0 {
				continue
			}
			sp.Families = append(sp.Families, SpecFamily{
				Family:       Families[i],
				Observations: obs[i],
				Conflicts:    conf[i],
			})
		}
		if len(sp.Families) > 0 {
			s.Specs = append(s.Specs, sp)
		}
	}
	s.BoundChecks = d.boundChecks.Load()
	s.BoundViolations = d.boundViolations.Load()
	s.BoundSkipped = d.boundSkipped.Load()
	return s
}

// FamilyHist exposes the aggregate histogram for one family label (nil
// for unknown labels or a nil domain); the Prometheus renderer reads raw
// ordered buckets through it.
func (d *Domain) FamilyHist(family string) *obsv.Histogram {
	if d == nil {
		return nil
	}
	if i := FamilyIndex(family); i >= 0 {
		return &d.families[i]
	}
	return nil
}
