// The mapping registry: a sharded, byte-budgeted LRU cache of lazily
// materialized mappings. The serving layer never builds a Retriever or
// LABEL-TREE table per request — the first request for a spec builds it
// once (concurrent requests for the same key wait on the in-flight build
// instead of duplicating it) and every later request is a shard-local map
// hit. Least-recently-used entries are evicted when a shard exceeds its
// slice of the byte budget.
//
// With a mapstore attached the registry becomes the memory tier of a
// two-tier cache: eviction spills table-backed mappings to disk instead
// of discarding them, and a miss consults the store (an mmap load plus
// revalidation) before paying a materialization. The disk probe runs
// inside the single-flight window — concurrent requests for the same key
// wait on one load exactly as they wait on one build.
package server

import (
	"container/list"
	"hash/maphash"
	"sync"

	"repro/internal/coloring"
	"repro/internal/mapstore"
)

const registryShards = 8

// Registry caches built mappings by spec key.
type Registry struct {
	perShardBudget int64
	seed           maphash.Seed
	shards         [registryShards]registryShard
	met            *Metrics
	store          *mapstore.Store // nil without a disk tier

	// overrides redirects a client-requested spec key to the spec the
	// adaptive controller migrated it to. Handlers resolve exactly once
	// per request, so registry lookups, family attribution and
	// theorem-bound queries all agree on the effective algorithm.
	ovMu      sync.RWMutex
	overrides map[string]MappingSpec
}

type registryShard struct {
	mu    sync.Mutex
	items map[string]*regEntry
	lru   *list.List // front = most recently used; values are *regEntry
	bytes int64
}

// regEntry is one cached (or in-flight) build. ready is closed when the
// build finishes; m/bytes/err are immutable afterwards.
type regEntry struct {
	key   string
	ready chan struct{}
	m     coloring.Mapping
	bytes int64
	err   error
	elem  *list.Element
}

// NewRegistry builds a registry with the given total byte budget, which is
// split evenly across shards. Budgets below one shard still admit single
// entries: eviction never removes the entry just inserted.
func NewRegistry(budgetBytes int64, met *Metrics) *Registry {
	r := &Registry{
		perShardBudget: budgetBytes / registryShards,
		seed:           maphash.MakeSeed(),
		met:            met,
		overrides:      make(map[string]MappingSpec),
	}
	for i := range r.shards {
		r.shards[i].items = make(map[string]*regEntry)
		r.shards[i].lru = list.New()
	}
	return r
}

// AttachStore wires the disk tier under the registry. Call before
// serving traffic; the registry takes no ownership (the server closes
// the store at shutdown, after flushing resident entries into it).
func (r *Registry) AttachStore(st *mapstore.Store) { r.store = st }

func (r *Registry) shardFor(key string) *registryShard {
	return &r.shards[maphash.String(r.seed, key)%registryShards]
}

// Acquire returns the mapping for the spec, building it on first use.
// Safe for arbitrary concurrency; at most one build per key runs at a
// time. The returned mapping stays valid even if the entry is later
// evicted (eviction only drops the cache reference).
func (r *Registry) Acquire(spec MappingSpec) (coloring.Mapping, error) {
	m, _, err := r.AcquireInfo(spec)
	return m, err
}

// AcquireInfo is Acquire plus attribution: hit reports whether the call
// was answered from a finished cache entry. A call that waits on another
// request's in-flight build reports hit=false — its latency is build
// latency, and the tracing layer buckets it with materializations.
func (r *Registry) AcquireInfo(spec MappingSpec) (m coloring.Mapping, hit bool, err error) {
	key := spec.Key()
	sh := r.shardFor(key)

	sh.mu.Lock()
	if e, ok := sh.items[key]; ok {
		sh.lru.MoveToFront(e.elem)
		hit = e.done()
		sh.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return nil, hit, e.err
		}
		r.met.registryHits.Add(1)
		if hit {
			r.met.registryAcquireHits.Add(1)
		} else {
			r.met.registryAcquireMaterializes.Add(1)
		}
		return e.m, hit, nil
	}
	e := &regEntry{key: key, ready: make(chan struct{})}
	e.elem = sh.lru.PushFront(e)
	sh.items[key] = e
	sh.mu.Unlock()
	r.met.registryMisses.Add(1)

	// Tier 2: the disk store. The probe (and on a hit, the mmap load and
	// revalidation) runs inside the single-flight window opened by the
	// placeholder above, so concurrent requests for this key wait on one
	// load. A disk hit is attributed separately from memory hits and from
	// materializations — it pays I/O latency, not build latency.
	if r.store != nil {
		if m, ok := r.store.Get(key); ok {
			victims := r.commitLocked(sh, e, m, sizeOf(m))
			r.met.registryAcquireDiskHits.Add(1)
			r.spill(victims)
			return m, false, nil
		}
	}

	m, bytes, err := spec.build()

	if err != nil {
		sh.mu.Lock()
		// Build errors are not cached: remove the placeholder so a later
		// request can retry (e.g. after a transient resource condition).
		delete(sh.items, key)
		sh.lru.Remove(e.elem)
		sh.mu.Unlock()
		e.err = err
		close(e.ready)
		return nil, false, err
	}
	victims := r.commitLocked(sh, e, m, bytes)
	r.met.registryAcquireMaterializes.Add(1)
	r.spill(victims)
	return m, false, nil
}

// commitLocked finishes a placeholder entry with its mapping, charges
// the shard, runs eviction, releases waiters, and returns the evicted
// entries for the caller to spill outside the shard lock.
func (r *Registry) commitLocked(sh *registryShard, e *regEntry, m coloring.Mapping, bytes int64) []*regEntry {
	sh.mu.Lock()
	e.m, e.bytes = m, bytes
	sh.bytes += bytes
	r.met.registryBytes.Add(bytes)
	victims := r.evictLocked(sh, e)
	sh.mu.Unlock()
	close(e.ready)
	return victims
}

// spill hands evicted mappings to the disk tier. PutAsync never blocks
// (a full spill queue drops and counts), so eviction latency stays off
// the request path.
func (r *Registry) spill(victims []*regEntry) {
	if r.store == nil {
		return
	}
	for _, v := range victims {
		r.store.PutAsync(v.key, v.m)
	}
}

// Preadmit warm-starts one key: the mapping is loaded from the attached
// store and inserted as a finished entry, so the first real request is a
// memory hit, not a materialization. Reports whether the key is resident
// afterwards.
func (r *Registry) Preadmit(key string) bool {
	if r.store == nil {
		return false
	}
	sh := r.shardFor(key)
	sh.mu.Lock()
	_, resident := sh.items[key]
	sh.mu.Unlock()
	if resident {
		return true
	}
	m, ok := r.store.Get(key)
	if !ok {
		return false
	}
	sh.mu.Lock()
	if _, raced := sh.items[key]; raced {
		sh.mu.Unlock()
		return true
	}
	e := &regEntry{key: key, ready: make(chan struct{})}
	e.elem = sh.lru.PushFront(e)
	sh.items[key] = e
	sh.mu.Unlock()
	victims := r.commitLocked(sh, e, m, sizeOf(m))
	r.spill(victims)
	return true
}

// FlushToStore synchronously spills every finished resident mapping with
// a disk codec, so a graceful shutdown persists the memory tier for the
// next process's warm start. Returns the number of spilled entries.
func (r *Registry) FlushToStore() int {
	if r.store == nil {
		return 0
	}
	flushed := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		done := make([]*regEntry, 0, len(sh.items))
		for _, e := range sh.items {
			if e.done() && e.err == nil {
				done = append(done, e)
			}
		}
		sh.mu.Unlock()
		for _, e := range done {
			if mapstore.CanStore(e.m) && r.store.Put(e.key, e.m) == nil {
				flushed++
			}
		}
	}
	return flushed
}

// evictLocked drops LRU-tail entries until the shard fits its budget,
// skipping the just-finished entry keep and any build still in flight.
// The evicted entries are returned so the caller can spill them to the
// disk tier after releasing the shard lock.
func (r *Registry) evictLocked(sh *registryShard, keep *regEntry) []*regEntry {
	var victims []*regEntry
	for sh.bytes > r.perShardBudget {
		el := sh.lru.Back()
		evicted := false
		for el != nil {
			v := el.Value.(*regEntry)
			prev := el.Prev()
			if v != keep && v.done() {
				sh.lru.Remove(el)
				delete(sh.items, v.key)
				sh.bytes -= v.bytes
				r.met.registryBytes.Add(-v.bytes)
				r.met.registryEvictions.Add(1)
				victims = append(victims, v)
				evicted = true
				break
			}
			el = prev
		}
		if !evicted {
			return victims // only keep and in-flight builds remain
		}
	}
	return victims
}

// done reports whether the entry's build has finished.
func (e *regEntry) done() bool {
	select {
	case <-e.ready:
		return true
	default:
		return false
	}
}

// Resolve maps a validated client spec to the spec actually served,
// following a controller-installed redirect when one exists. A spec
// without a redirect resolves to itself.
func (r *Registry) Resolve(spec MappingSpec) MappingSpec {
	r.ovMu.RLock()
	eff, ok := r.overrides[spec.Key()]
	r.ovMu.RUnlock()
	if ok {
		return eff
	}
	return spec
}

// SetOverride installs (or, when to's key equals fromKey, removes) the
// redirect for one requested key. Used by the controller's migration
// path and by warm starts re-applying persisted decisions.
func (r *Registry) SetOverride(fromKey string, to MappingSpec) {
	r.ovMu.Lock()
	if to.Key() == fromKey {
		delete(r.overrides, fromKey)
	} else {
		r.overrides[fromKey] = to
	}
	r.ovMu.Unlock()
}

// Migrate retires the entry under fromKey and admits the mapping for
// spec `to` in its place, flipping the redirect so later requests for
// fromKey resolve to the new spec. The byte budget never transiently
// holds both artifacts: the candidate is built (or disk-loaded)
// *uncharged*, the retired entry is uncharged first, and only then is
// the candidate committed — under the normal single-flight window, so a
// racing client build for the same key is honored rather than
// duplicated. The retired mapping is spilled to the disk tier (when one
// is attached), never silently dropped.
//
// prebuilt, when non-nil, is used as the candidate's mapping (the
// controller passes its shadow-scored copy so migration pays no second
// materialization); otherwise the store is probed and then the spec is
// built.
func (r *Registry) Migrate(fromKey string, to MappingSpec, prebuilt coloring.Mapping) (coloring.Mapping, error) {
	toKey := to.Key()
	m := prebuilt
	var bytes int64
	if m != nil {
		bytes = sizeOf(m)
	}
	if m == nil && r.store != nil {
		if sm, ok := r.store.Get(toKey); ok {
			m, bytes = sm, sizeOf(sm)
		}
	}
	if m == nil {
		var err error
		m, bytes, err = to.build()
		if err != nil {
			return nil, err
		}
	}

	// Retire the old artifact first: uncharge its bytes exactly once and
	// collect it for the disk spill. The artifact to retire lives under
	// the entry's *current effective* key — fromKey itself only until the
	// first migration, the previous migration target afterwards. An
	// in-flight build for that key is left alone — it finishes, commits,
	// and ages out via the LRU (its waiters still get a correct mapping;
	// only new requests redirect).
	retireKey := fromKey
	r.ovMu.RLock()
	if cur, ok := r.overrides[fromKey]; ok {
		retireKey = cur.Key()
	}
	r.ovMu.RUnlock()
	var retired *regEntry
	if retireKey != toKey {
		sh := r.shardFor(retireKey)
		sh.mu.Lock()
		if old, ok := sh.items[retireKey]; ok && old.done() && old.err == nil {
			sh.lru.Remove(old.elem)
			delete(sh.items, retireKey)
			sh.bytes -= old.bytes
			r.met.registryBytes.Add(-old.bytes)
			retired = old
		}
		sh.mu.Unlock()
	}

	// Admit the candidate under the single-flight window: a racing
	// placeholder (or an already-resident entry) wins and our prebuilt
	// copy is simply returned to the caller uncached.
	tsh := r.shardFor(toKey)
	tsh.mu.Lock()
	if _, raced := tsh.items[toKey]; raced {
		tsh.mu.Unlock()
	} else {
		e := &regEntry{key: toKey, ready: make(chan struct{})}
		e.elem = tsh.lru.PushFront(e)
		tsh.items[toKey] = e
		tsh.mu.Unlock()
		victims := r.commitLocked(tsh, e, m, bytes)
		r.spill(victims)
	}

	r.SetOverride(fromKey, to)
	if retired != nil {
		r.spill([]*regEntry{retired})
	}
	return m, nil
}
