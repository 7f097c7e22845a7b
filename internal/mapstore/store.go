// Package mapstore is the disk tier under the serving registry: spilled
// mapping artifacts (COLOR retriever tables, LABEL-TREE micro tables,
// dense materialized mappings) in a versioned, CRC-checksummed,
// block-aligned format, loaded back zero-copy through mmap with a
// read()+copy fallback.
//
// The store is crash-safe by construction: entries and the manifest are
// written with crcframe.WriteFile, so a kill -9 mid-spill leaves either
// the old bytes or the new bytes plus a *.tmp that Open deletes — never
// a torn file a later Open would trust.
// Corrupt or truncated entries (bit rot, partial writes that somehow got
// renamed) are detected by the header and payload checksums, skipped,
// unlinked and counted in the corrupt stat.
//
// The store enforces its own byte budget with LRU (last-access) plus
// optional TTL garbage collection. GC unlinks entry files; mappings
// already loaded through mmap stay valid because the pages outlive the
// directory entry — regions are only unmapped by Close, after the
// serving layer has quiesced. Mappings returned by Get must not be used
// after Close.
package mapstore

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coloring"
	"repro/internal/crcframe"
	"repro/internal/obsv"
)

// Options configures a Store.
type Options struct {
	// Dir is the store directory, created if absent.
	Dir string
	// BudgetBytes bounds the on-disk bytes (default 1 GiB). The oldest
	// last-access entries are unlinked first when over budget.
	BudgetBytes int64
	// TTL, when positive, unlinks entries not accessed for this long
	// (checked at Open and on every admission).
	TTL time.Duration
	// DisableMmap forces the read()+copy load path. Tests use it to
	// exercise the portable fallback; production leaves it false.
	DisableMmap bool
	// SpillQueue bounds the async spill queue (default 64); beyond it
	// PutAsync drops and counts.
	SpillQueue int

	// now is the test clock hook.
	now func() time.Time
}

// Stats is a point-in-time snapshot of the store counters.
type Stats struct {
	Hits       int64 // Get answered from disk (or the decoded-entry cache)
	Misses     int64 // Get found no usable entry
	Spills     int64 // entries written (sync Put and drained async spills)
	SpillDrops int64 // async spills dropped (full queue, closed store, write errors)
	Corrupt    int64 // entries rejected by checksum/format validation
	Evictions  int64 // entries unlinked by budget/TTL GC
	Bytes      int64 // resident on-disk bytes
	Entries    int64 // resident entries
}

// entry is one committed on-disk artifact.
type entry struct {
	key        string
	file       string // base name within the store dir
	bytes      int64  // full file size (header + payload)
	hits       int64
	lastAccess int64 // unix nanoseconds
}

type spillReq struct {
	key string
	m   coloring.Mapping
}

// Store is a disk-backed mapping store. All methods are safe for
// concurrent use.
type Store struct {
	dir         string
	budget      int64
	ttl         time.Duration
	disableMmap bool
	now         func() time.Time

	mu        sync.Mutex
	entries   map[string]*entry
	loaded    map[string]coloring.Mapping // decoded-entry cache, dropped on GC
	regions   [][]byte                    // live mmap regions; unmapped only at Close
	bytes     int64
	decisions map[string]string // requested key → effective spec JSON
	closing   bool              // no new work accepted; queued spills still drain
	closed    bool

	spillCh chan spillReq
	spillWG sync.WaitGroup

	hits, misses, spills, spillDrops, corrupt, evictions atomic.Int64

	loadNS obsv.Histogram // successful disk loads, in nanoseconds
}

// Open loads (or initializes) the store in opts.Dir: stale temp files
// are removed, every entry file's header is validated (corrupt ones are
// counted and unlinked), heat is joined from the manifest, and the
// budget/TTL GC runs once before the store accepts traffic.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("mapstore: empty store directory")
	}
	if opts.BudgetBytes <= 0 {
		opts.BudgetBytes = 1 << 30
	}
	if opts.SpillQueue <= 0 {
		opts.SpillQueue = 64
	}
	if opts.now == nil {
		opts.now = time.Now
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("mapstore: %w", err)
	}
	s := &Store{
		dir:         opts.Dir,
		budget:      opts.BudgetBytes,
		ttl:         opts.TTL,
		disableMmap: opts.DisableMmap,
		now:         opts.now,
		entries:     make(map[string]*entry),
		loaded:      make(map[string]coloring.Mapping),
		decisions:   make(map[string]string),
		spillCh:     make(chan spillReq, opts.SpillQueue),
	}

	heat := make(map[string]manifestEntry)
	if raw, err := os.ReadFile(filepath.Join(opts.Dir, manifestName)); err == nil {
		if man, err := decodeManifest(raw); err != nil {
			// Advisory only: heat is lost, entries are re-adopted below.
			s.corrupt.Add(1)
		} else {
			for _, me := range man.Entries {
				heat[me.Key] = me
			}
			for from, to := range man.Decisions {
				s.decisions[from] = to
			}
		}
	}

	now := s.now().UnixNano()
	dirents, err := os.ReadDir(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("mapstore: %w", err)
	}
	for _, de := range dirents {
		name := de.Name()
		switch {
		case de.IsDir() || name == manifestName:
			continue
		case strings.HasSuffix(name, ".tmp"):
			// A spill interrupted before its atomic rename; never trusted.
			_ = os.Remove(filepath.Join(opts.Dir, name))
			continue
		case !strings.HasSuffix(name, entrySuffix):
			continue
		}
		path := filepath.Join(opts.Dir, name)
		h, size, err := readEntryHeader(path)
		if err != nil || entryFileName(h.key) != name {
			s.corrupt.Add(1)
			_ = os.Remove(path)
			continue
		}
		e := &entry{key: h.key, file: name, bytes: size, lastAccess: now}
		if me, ok := heat[h.key]; ok {
			e.hits, e.lastAccess = me.Hits, me.LastAccess
		}
		s.entries[h.key] = e
		s.bytes += size
	}

	s.mu.Lock()
	s.gcLocked(nil)
	err = s.writeManifestLocked()
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}

	s.spillWG.Add(1)
	go s.spillLoop()
	return s, nil
}

const entrySuffix = ".pme"

// entryFileName derives the deterministic file name of a key: a
// sanitized prefix for debuggability plus an FNV-64a tag for uniqueness.
func entryFileName(key string) string {
	h := fnv.New64a()
	_, _ = io.WriteString(h, key)
	var b strings.Builder
	for i := 0; i < len(key) && i < 48; i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '-', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return fmt.Sprintf("%s-%016x%s", b.String(), h.Sum64(), entrySuffix)
}

// Get loads the mapping stored under key. The second result follows the
// cache-hit convention: false for "not stored" and for entries that
// failed validation (which are dropped and counted corrupt, so the
// caller simply rematerializes).
func (s *Store) Get(key string) (coloring.Mapping, bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.misses.Add(1)
		return nil, false
	}
	e, ok := s.entries[key]
	if !ok {
		s.mu.Unlock()
		s.misses.Add(1)
		return nil, false
	}
	if m, ok := s.loaded[key]; ok {
		s.touchLocked(e)
		s.mu.Unlock()
		s.hits.Add(1)
		return m, true
	}
	path := filepath.Join(s.dir, e.file)
	s.mu.Unlock()

	start := time.Now()
	m, region, err := s.loadFile(path, key)
	if err != nil {
		s.corrupt.Add(1)
		s.misses.Add(1)
		s.mu.Lock()
		if cur, ok := s.entries[key]; ok && cur == e {
			s.removeLocked(e)
			_ = s.writeManifestLocked()
		}
		s.mu.Unlock()
		return nil, false
	}
	s.loadNS.Observe(time.Since(start).Nanoseconds())

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = munmapBytes(region)
		s.misses.Add(1)
		return nil, false
	}
	if prev, ok := s.loaded[key]; ok {
		// Benign race with a concurrent loader of the same key: keep the
		// first decode, release ours (nothing aliases it yet).
		s.mu.Unlock()
		_ = munmapBytes(region)
		s.hits.Add(1)
		return prev, true
	}
	s.loaded[key] = m
	if region != nil {
		s.regions = append(s.regions, region)
	}
	if cur, ok := s.entries[key]; ok {
		s.touchLocked(cur)
	}
	s.mu.Unlock()
	s.hits.Add(1)
	return m, true
}

// loadFile maps (or reads) and decodes one entry file. On the mmap path
// the returned region backs the mapping's tables zero-copy; on the
// fallback path region is nil and the tables alias a private buffer.
func (s *Store) loadFile(path, wantKey string) (coloring.Mapping, []byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := st.Size()
	if size < headerBlock {
		return nil, nil, fmt.Errorf("mapstore: entry of %d bytes below the %d-byte header", size, headerBlock)
	}
	var data []byte
	var region []byte
	if mmapSupported && !s.disableMmap {
		if b, err := mmapFile(f, size); err == nil {
			data, region = b, b
		}
	}
	if data == nil {
		data = make([]byte, size)
		if _, err := io.ReadFull(f, data); err != nil {
			return nil, nil, err
		}
	}
	key, m, err := decodeMapping(data, true)
	if err == nil && key != wantKey {
		err = fmt.Errorf("mapstore: entry %s carries key %q, want %q", filepath.Base(path), key, wantKey)
	}
	if err != nil {
		_ = munmapBytes(region)
		return nil, nil, err
	}
	return m, region, nil
}

// Put synchronously spills the mapping under key. Already-present keys
// are no-ops (entry content is deterministic per key). The write is
// crcframe.WriteFile's crash-safe one.
func (s *Store) Put(key string, m coloring.Mapping) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("mapstore: store closed")
	}
	if _, ok := s.entries[key]; ok {
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()

	data, err := encodeMapping(key, m)
	if err != nil {
		return err
	}
	file := entryFileName(key)
	path := filepath.Join(s.dir, file)
	if err := crcframe.WriteFile(path, data); err != nil {
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("mapstore: store closed")
	}
	if old, ok := s.entries[key]; ok {
		// Lost a benign same-key race; the rename already replaced the
		// bytes with identical content.
		s.bytes -= old.bytes
	}
	e := &entry{key: key, file: file, bytes: int64(len(data)), hits: 1, lastAccess: s.now().UnixNano()}
	s.entries[key] = e
	s.bytes += e.bytes
	s.spills.Add(1)
	s.gcLocked(e)
	return s.writeManifestLocked()
}

// PutAsync queues a spill without blocking the caller (the registry's
// eviction path). A full queue or closing store drops the spill and
// counts it; the entry can be rebuilt, so dropping is always safe.
func (s *Store) PutAsync(key string, m coloring.Mapping) {
	if !CanStore(m) {
		return
	}
	s.mu.Lock()
	if s.closing || s.closed {
		s.mu.Unlock()
		s.spillDrops.Add(1)
		return
	}
	select {
	case s.spillCh <- spillReq{key: key, m: m}:
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		s.spillDrops.Add(1)
	}
}

// spillLoop drains the async spill queue until Close.
func (s *Store) spillLoop() {
	defer s.spillWG.Done()
	for req := range s.spillCh {
		if err := s.Put(req.key, req.m); err != nil {
			s.spillDrops.Add(1)
		}
	}
}

// Contains reports whether key has a committed entry.
func (s *Store) Contains(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	return ok
}

// Hottest returns up to n keys ordered hottest-first (most recent last
// access, hit count breaking ties) — the warm-start admission order.
func (s *Store) Hottest(n int) []string {
	s.mu.Lock()
	es := make([]*entry, 0, len(s.entries))
	for _, e := range s.entries {
		es = append(es, e)
	}
	s.mu.Unlock()
	sort.Slice(es, func(i, j int) bool {
		if es[i].lastAccess != es[j].lastAccess {
			return es[i].lastAccess > es[j].lastAccess
		}
		if es[i].hits != es[j].hits {
			return es[i].hits > es[j].hits
		}
		return es[i].key < es[j].key
	})
	if n > len(es) {
		n = len(es)
	}
	keys := make([]string, n)
	for i := 0; i < n; i++ {
		keys[i] = es[i].key
	}
	return keys
}

// SetDecision durably records one controller migration decision:
// requested spec key → JSON-encoded effective spec. An empty effective
// value deletes the decision (the entry migrated back to what the
// client asked for). The manifest is rewritten synchronously so a crash
// after a migration still warm-starts onto the chosen mapping.
func (s *Store) SetDecision(fromKey, effectiveSpecJSON string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing || s.closed {
		return fmt.Errorf("mapstore: store closed")
	}
	if effectiveSpecJSON == "" {
		delete(s.decisions, fromKey)
	} else {
		s.decisions[fromKey] = effectiveSpecJSON
	}
	return s.writeManifestLocked()
}

// Decisions returns the persisted migration decisions as requested-key →
// effective-spec-JSON pairs; a warm start re-applies them.
func (s *Store) Decisions() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.decisions))
	for from, to := range s.decisions {
		out[from] = to
	}
	return out
}

// LoadNS is the latency histogram of successful disk loads, in
// nanoseconds.
func (s *Store) LoadNS() *obsv.Histogram { return &s.loadNS }

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	st := Stats{
		Hits:       s.hits.Load(),
		Misses:     s.misses.Load(),
		Spills:     s.spills.Load(),
		SpillDrops: s.spillDrops.Load(),
		Corrupt:    s.corrupt.Load(),
		Evictions:  s.evictions.Load(),
	}
	s.mu.Lock()
	st.Bytes = s.bytes
	st.Entries = int64(len(s.entries))
	s.mu.Unlock()
	return st
}

// Close stops the spiller (draining queued spills), flushes the
// manifest, and unmaps every region. Mappings returned by Get are
// invalid afterwards; the serving layer closes the store only after its
// workers have exited. Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		// Wait for a concurrent Close to finish tearing down.
		s.spillWG.Wait()
		return nil
	}
	s.closing = true
	s.mu.Unlock()

	close(s.spillCh)
	s.spillWG.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	err := s.writeManifestLocked()
	for _, r := range s.regions {
		_ = munmapBytes(r)
	}
	s.regions = nil
	s.loaded = nil
	return err
}

// touchLocked bumps an entry's heat. The manifest is flushed lazily (on
// admission, GC and Close), so heat persisted across a crash may lag by
// the hits since the last flush — acceptable for an advisory ordering.
func (s *Store) touchLocked(e *entry) {
	e.hits++
	e.lastAccess = s.now().UnixNano()
}

// removeLocked unlinks an entry and forgets its decoded form. Any
// already-returned mapping stays valid: on the mmap path the pages
// outlive the unlink, and regions are only unmapped at Close.
func (s *Store) removeLocked(e *entry) {
	_ = os.Remove(filepath.Join(s.dir, e.file))
	delete(s.entries, e.key)
	delete(s.loaded, e.key)
	s.bytes -= e.bytes
}

// gcLocked enforces TTL then the byte budget, never evicting keep (the
// entry just admitted — mirroring the registry's own LRU guarantee).
func (s *Store) gcLocked(keep *entry) {
	now := s.now().UnixNano()
	if s.ttl > 0 {
		cutoff := now - s.ttl.Nanoseconds()
		for _, e := range s.entries {
			if e != keep && e.lastAccess < cutoff {
				s.removeLocked(e)
				s.evictions.Add(1)
			}
		}
	}
	for s.bytes > s.budget {
		var victim *entry
		for _, e := range s.entries {
			if e == keep {
				continue
			}
			if victim == nil || e.lastAccess < victim.lastAccess ||
				(e.lastAccess == victim.lastAccess && e.key < victim.key) {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		s.removeLocked(victim)
		s.evictions.Add(1)
	}
}

// writeManifestLocked persists the heat manifest atomically.
func (s *Store) writeManifestLocked() error {
	man := manifest{Entries: make([]manifestEntry, 0, len(s.entries))}
	if len(s.decisions) > 0 {
		man.Decisions = make(map[string]string, len(s.decisions))
		for from, to := range s.decisions {
			man.Decisions[from] = to
		}
	}
	for _, e := range s.entries {
		man.Entries = append(man.Entries, manifestEntry{
			Key: e.key, File: e.file, Bytes: e.bytes, Hits: e.hits, LastAccess: e.lastAccess,
		})
	}
	sort.Slice(man.Entries, func(i, j int) bool { return man.Entries[i].Key < man.Entries[j].Key })
	data, err := encodeManifest(man)
	if err != nil {
		return err
	}
	return crcframe.WriteFile(filepath.Join(s.dir, manifestName), data)
}
