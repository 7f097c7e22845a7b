// Package obsv is a zero-dependency, request-scoped tracing layer for
// the pmsd serving path. A request's trace is a Record: its identity,
// per-stage totals and the spans of the stages it passes through —
// admission wait, coalesce wait, registry acquire (split cache-hit vs.
// materialize), batch compute, response write — so a slow request is
// attributable to a specific stage instead of showing up only in an
// endpoint-level latency histogram. The paper's evaluation turns on
// exactly this decomposition: addressing cost (registry
// materialization, retrieval tables) versus parallel-access cost (batch
// compute), and the tracer makes the two separable in a live server.
//
// Design constraints, in order:
//
//   - no allocation per traced request: a Record is a fixed-size value
//     (fixed span slots, a [NumStages] array of totals) that lives
//     inside its owner's per-request state, which pmsd pools;
//   - near-zero cost when a request is not sampled: Tracer.Sample leaves
//     the Record untraced, and Span and Finish return at once on an
//     untraced Record, so unsampled requests pay one atomic add and a
//     branch per span;
//   - no lock in the Record: it has one writer at a time, and its owner
//     orders hand-offs to other goroutines (a batch worker recording on
//     behalf of coalesced requests) with channel operations. Per-stage
//     histograms are atomic power-of-two buckets, written with plain
//     atomic adds;
//   - bounded memory: complete traces land in a fixed-size buffer that
//     keeps only the slowest N, with an atomic threshold fast-path so
//     fast traces skip the lock entirely once the buffer is full. Only
//     an admitted trace is copied out of its Record.
//
// Traces join across processes via the X-Request-Id header: the client
// generates an ID per logical call and stamps every attempt with it
// (plus attempt number, elapsed time and hedge flag), so the server-side
// spans of a retried or hedged call group under one ID in
// /debug/requests.
package obsv

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Header names that join client attempt spans with server traces.
const (
	// HeaderRequestID carries the client-generated request ID; the server
	// adopts it as the trace ID (and generates one when absent).
	HeaderRequestID = "X-Request-Id"
	// HeaderClientAttempt is the 1-based attempt number of the logical call.
	HeaderClientAttempt = "X-Client-Attempt"
	// HeaderClientElapsedUS is the client-side elapsed time of the logical
	// call, in microseconds, when this attempt was issued (includes
	// backoff sleeps of earlier attempts).
	HeaderClientElapsedUS = "X-Client-Elapsed-Us"
	// HeaderClientHedge marks a hedged (racing) attempt.
	HeaderClientHedge = "X-Client-Hedge"
)

// Stage identifies one serving-path stage of a traced request.
type Stage uint8

const (
	// StageAdmissionWait is the time between submitting a task to the
	// worker pool and a worker starting it (queueing delay). For a
	// coalesced lookup it starts at the later of its arrival and its
	// group's queueing.
	StageAdmissionWait Stage = iota
	// StageCoalesceWait is the time a singleton lookup spent in the
	// coalescer before its group was queued on the worker pool. A group
	// is queued the moment it opens, so this is near zero; a lookup that
	// joins an already queued group records zero.
	StageCoalesceWait
	// StageRegistryHit is a registry acquire answered from cache.
	StageRegistryHit
	// StageRegistryMaterialize is a registry acquire that built the
	// mapping (or waited on another request's in-flight build).
	StageRegistryMaterialize
	// StageBatchCompute is the mapping/coloring/simulation compute itself.
	StageBatchCompute
	// StageResponseWrite is the time spent writing the HTTP response.
	StageResponseWrite
	// StageTotal is the whole request, recorded at Finish.
	StageTotal

	numStages
)

// NumStages is the number of serving-path stages, exported so external
// aggregators (the flight recorder's per-event stage vectors) can size
// fixed arrays that index by Stage.
const NumStages = int(numStages)

// String names the stage as it appears in snapshots.
func (s Stage) String() string {
	switch s {
	case StageAdmissionWait:
		return "admission_wait"
	case StageCoalesceWait:
		return "coalesce_wait"
	case StageRegistryHit:
		return "registry_acquire_hit"
	case StageRegistryMaterialize:
		return "registry_acquire_materialize"
	case StageBatchCompute:
		return "batch_compute"
	case StageResponseWrite:
		return "response_write"
	case StageTotal:
		return "total"
	default:
		return fmt.Sprintf("stage(%d)", uint8(s))
	}
}

// NumBuckets is the bucket count of Histogram: buckets cover
// 2^0 … 2^27 (~134 s in µs).
const NumBuckets = 28

// Histogram is a lock-free power-of-two bucketed distribution: bucket i
// counts observations v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i),
// so bucket i's inclusive upper bound is 2^i - 1. Recording is a few
// atomic adds; the zero Histogram is ready to use. It is shared beyond
// this package — the server's latency and batch histograms,
// internal/metrics' domain-level conflict histograms and
// internal/mapstore's load latency — so every histogram in the system
// buckets identically.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [NumBuckets]atomic.Int64
}

// Observe records one value (negatives clamp to 0).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	i := bits.Len64(uint64(v))
	if i >= NumBuckets {
		i = NumBuckets - 1
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[i].Add(1)
}

// Load atomically reads the counters: total observations, their sum, and
// the per-bucket counts in ascending bucket order. Cross-counter skew
// under concurrent Observe calls is acceptable for observability.
func (h *Histogram) Load() (count, sum int64, buckets [NumBuckets]int64) {
	count = h.count.Load()
	sum = h.sum.Load()
	for i := range h.buckets {
		buckets[i] = h.buckets[i].Load()
	}
	return count, sum, buckets
}

// BucketUpper returns the inclusive upper bound of bucket i (2^i - 1);
// the last bucket is unbounded and reports math.MaxInt64.
func BucketUpper(i int) int64 {
	if i >= NumBuckets-1 {
		return math.MaxInt64
	}
	return (int64(1) << uint(i)) - 1
}

// StageSnapshot is the exported form of one stage histogram (µs).
type StageSnapshot struct {
	Count   int64            `json:"count"`
	SumUS   int64            `json:"sum_us"`
	MeanUS  float64          `json:"mean_us"`
	Buckets map[string]int64 `json:"buckets,omitempty"` // µs upper bound → count
}

func (h *Histogram) snapshot() StageSnapshot {
	s := StageSnapshot{Count: h.count.Load(), SumUS: h.sum.Load()}
	if s.Count > 0 {
		s.MeanUS = float64(s.SumUS) / float64(s.Count)
		s.Buckets = make(map[string]int64)
		for i := range h.buckets {
			if c := h.buckets[i].Load(); c > 0 {
				s.Buckets[BucketLabel(i)] = c
			}
		}
	}
	return s
}

// BucketLabel renders bucket i's inclusive upper bound ("inf" for the
// last, unbounded bucket), as used in snapshot bucket maps.
func BucketLabel(i int) string {
	if i == NumBuckets-1 {
		return "inf"
	}
	return fmt.Sprintf("%d", (int64(1)<<uint(i))-1)
}

// Config tunes a Tracer. Zero values take the documented defaults.
type Config struct {
	// SampleRate is the fraction of requests traced: 1 traces everything,
	// 0.01 every ~100th request (counter-based, so the rate is exact over
	// a window), and <= 0 disables tracing entirely.
	SampleRate float64
	// SlowestN is how many of the slowest complete traces are retained
	// for /debug/requests (default 32).
	SlowestN int
}

// Tracer samples requests and aggregates their spans. Safe for
// arbitrary concurrency; the zero Tracer is not usable — call New.
type Tracer struct {
	sampleEvery uint64 // 0 = disabled, 1 = always, k = every k-th request
	rate        float64
	counter     atomic.Uint64
	started     atomic.Int64 // requests seen (sampled or not)
	sampled     atomic.Int64 // traces started
	finished    atomic.Int64 // traces finished
	stages      [numStages]Histogram
	slow        slowBuffer
}

// New builds a tracer from the config.
func New(cfg Config) *Tracer {
	t := &Tracer{rate: cfg.SampleRate}
	switch {
	case cfg.SampleRate <= 0:
		t.sampleEvery = 0
	case cfg.SampleRate >= 1:
		t.sampleEvery = 1
		t.rate = 1
	default:
		t.sampleEvery = uint64(math.Round(1 / cfg.SampleRate))
	}
	n := cfg.SlowestN
	if n <= 0 {
		n = 32
	}
	t.slow.capacity = n
	t.slow.min.Store(math.MinInt64)
	return t
}

// Enabled reports whether the tracer samples at all.
func (t *Tracer) Enabled() bool { return t != nil && t.sampleEvery > 0 }

// Sample decides whether the request r records is traced and, when it
// is, starts r's clock at start. A request outside the sample leaves r
// untraced.
func (t *Tracer) Sample(r *Record, start time.Time) {
	if !t.Enabled() {
		return
	}
	t.started.Add(1)
	if t.sampleEvery > 1 && t.counter.Add(1)%t.sampleEvery != 0 {
		return
	}
	t.sampled.Add(1)
	r.tracer, r.start = t, start
}

// ClientInfo is the client-side attempt metadata joined onto a server
// trace via the X-Client-* headers.
type ClientInfo struct {
	Attempt   int   `json:"attempt"`              // 1-based attempt of the logical call
	ElapsedUS int64 `json:"elapsed_us,omitempty"` // client call elapsed when this attempt was issued
	Hedge     bool  `json:"hedge,omitempty"`      // this attempt is a hedge
}

// SpanSnapshot is one recorded stage span, offsets relative to the
// trace start.
type SpanSnapshot struct {
	Stage   string `json:"stage"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
}

// TraceSnapshot is one complete trace as served by /debug/requests.
// Tenant and Mapping carry the same identity fields the flight
// recorder stamps on its per-request events, so a slowest-trace entry
// and the matching flight-recorder event correlate on more than the
// request ID alone.
type TraceSnapshot struct {
	ID       string         `json:"request_id"`
	Endpoint string         `json:"endpoint"`
	Tenant   string         `json:"tenant,omitempty"`
	Mapping  string         `json:"mapping,omitempty"` // effective mapping key after controller overrides
	Status   int            `json:"status"`
	TotalUS  int64          `json:"total_us"`
	Client   *ClientInfo    `json:"client,omitempty"`
	Spans    []SpanSnapshot `json:"spans"`
}

// maxSpans is the number of span slots in a Record. A pmsd request
// records at most five spans (a coalesced lookup: coalesce wait,
// admission wait, registry acquire, batch compute, response write). A
// span past the last slot still counts in its stage's total and
// histogram; only the per-trace span list drops it.
const maxSpans = 8

// Record is one request's trace: identity, per-stage totals and fixed
// span slots. The zero Record is untraced; Tracer.Sample decides
// whether a request is traced, and Finish ends the trace.
//
// A Record holds no lock, and filling one allocates nothing. It has one
// writer at a time: the owner may hand it to another goroutine (a pool worker) for
// spans, but must order those writes before its own next access with a
// channel operation, and must not reuse the Record until every such
// writer is done with it.
type Record struct {
	// Identity, stamped by the serving layer. It is set on every request,
	// traced or not, since pmsd's flight events read it too; Client only
	// on traced requests.
	ID       string     // request ID (X-Request-Id, adopted or generated)
	Endpoint string     // endpoint name
	Tenant   string     // sanitized tenant
	Mapping  string     // effective mapping key after controller overrides
	Client   ClientInfo // client attempt metadata; zero Attempt when absent

	tracer  *Tracer // nil: not sampled, or finished
	start   time.Time
	stageUS [NumStages]int64
	spans   [maxSpans]SpanSnapshot
	nspans  int
}

// Traced reports whether r is being traced.
func (r *Record) Traced() bool { return r.tracer != nil }

// Span records one stage span measured by the caller. start may come
// from another goroutine's clock reading; a zero start is ignored, as is
// every span on an untraced Record. The duration also feeds the
// tracer's lock-free per-stage histogram.
func (r *Record) Span(stage Stage, start time.Time, d time.Duration) {
	if r.tracer == nil || start.IsZero() {
		return
	}
	us := d.Microseconds()
	r.tracer.stages[stage].Observe(us)
	r.stageUS[stage] += us
	if r.nspans < maxSpans {
		r.spans[r.nspans] = SpanSnapshot{Stage: stage.String(), StartUS: start.Sub(r.start).Microseconds(), DurUS: us}
		r.nspans++
	}
}

// SpanSince records a span of stage from start until now.
func (r *Record) SpanSince(stage Stage, start time.Time) {
	if r.tracer == nil {
		return
	}
	r.Span(stage, start, time.Since(start))
}

// StagesUS returns the per-stage microsecond totals of the spans
// recorded so far, indexed by Stage: all zero on an untraced Record.
// The total stage stays zero; Finish records the whole request in the
// tracer only.
func (r *Record) StagesUS() [NumStages]int64 { return r.stageUS }

// Finish completes the trace with the response status: the total lands
// in the "total" histogram and the trace becomes a candidate for the
// slowest-N buffer. It detaches r from the tracer, so later spans and a
// second Finish are no-ops.
func (r *Record) Finish(status int) {
	t := r.tracer
	if t == nil {
		return
	}
	r.tracer = nil
	total := time.Since(r.start).Microseconds()
	t.stages[StageTotal].Observe(total)
	t.finished.Add(1)
	t.slow.offer(r, status, total)
}

// snapshot copies r out as a complete trace. Spans is never nil, so a
// trace without spans encodes "spans":[].
func (r *Record) snapshot(status int, totalUS int64) TraceSnapshot {
	snap := TraceSnapshot{
		ID:       r.ID,
		Endpoint: r.Endpoint,
		Tenant:   r.Tenant,
		Mapping:  r.Mapping,
		Status:   status,
		TotalUS:  totalUS,
		Spans:    make([]SpanSnapshot, r.nspans),
	}
	if r.Client.Attempt != 0 {
		ci := r.Client
		snap.Client = &ci
	}
	copy(snap.Spans, r.spans[:r.nspans])
	return snap
}

// Snapshot is the /debug/requests JSON document.
type Snapshot struct {
	SampleRate float64                  `json:"sample_rate"`
	Started    int64                    `json:"requests_seen"`
	Sampled    int64                    `json:"traces_sampled"`
	Finished   int64                    `json:"traces_finished"`
	Stages     map[string]StageSnapshot `json:"stages"`
	Slowest    []TraceSnapshot          `json:"slowest"`
}

// Snapshot captures the per-stage histograms and the slowest traces,
// sorted slowest first. Nil-safe (a disabled tracer reports zeroes).
func (t *Tracer) Snapshot() Snapshot {
	s := Snapshot{Stages: map[string]StageSnapshot{}}
	if t == nil {
		return s
	}
	s.SampleRate = t.rate
	s.Started = t.started.Load()
	s.Sampled = t.sampled.Load()
	s.Finished = t.finished.Load()
	for i := Stage(0); i < numStages; i++ {
		if snap := t.stages[i].snapshot(); snap.Count > 0 {
			s.Stages[i.String()] = snap
		}
	}
	s.Slowest = t.slow.snapshot()
	return s
}

// ForEachStage calls fn for every stage in declaration order with the
// tracer's aggregate histogram for that stage, giving exporters (the
// Prometheus renderer) raw ordered buckets instead of the label-keyed
// snapshot map. Nil-safe: a disabled tracer visits nothing.
func (t *Tracer) ForEachStage(fn func(s Stage, h *Histogram)) {
	if t == nil {
		return
	}
	for i := Stage(0); i < numStages; i++ {
		fn(i, &t.stages[i])
	}
}

// slowBuffer keeps the slowest N complete traces in fixed storage. When
// full, an atomic floor lets faster traces bail without the lock; a
// slower trace replaces the current minimum in place.
type slowBuffer struct {
	capacity int
	min      atomic.Int64 // TotalUS floor for admission once full; MinInt64 while filling
	mu       sync.Mutex
	entries  []TraceSnapshot
}

// offer admits r's finished trace when it is among the slowest N seen,
// copying it out of r only then.
func (b *slowBuffer) offer(r *Record, status int, totalUS int64) {
	if totalUS <= b.min.Load() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.entries) < b.capacity {
		b.entries = append(b.entries, r.snapshot(status, totalUS))
		if len(b.entries) == b.capacity {
			b.min.Store(b.minLocked())
		}
		return
	}
	// Replace the current minimum (the earlier fast-path check can race
	// with a concurrent replacement; re-check under the lock).
	idx, minTotal := 0, b.entries[0].TotalUS
	for i, e := range b.entries[1:] {
		if e.TotalUS < minTotal {
			idx, minTotal = i+1, e.TotalUS
		}
	}
	if totalUS <= minTotal {
		return
	}
	b.entries[idx] = r.snapshot(status, totalUS)
	b.min.Store(b.minLocked())
}

// minLocked returns the smallest TotalUS currently held. Caller holds mu
// and the buffer is full.
func (b *slowBuffer) minLocked() int64 {
	m := b.entries[0].TotalUS
	for _, e := range b.entries[1:] {
		if e.TotalUS < m {
			m = e.TotalUS
		}
	}
	return m
}

func (b *slowBuffer) snapshot() []TraceSnapshot {
	b.mu.Lock()
	out := make([]TraceSnapshot, len(b.entries))
	copy(out, b.entries)
	b.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].TotalUS > out[j].TotalUS })
	return out
}

// idPrefix makes request IDs unique across processes; idCounter makes
// them unique within one.
var (
	idPrefix  = randomPrefix()
	idCounter atomic.Uint64
)

func randomPrefix() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; fall back to
		// a fixed prefix rather than panic in an observability layer.
		return "00000000"
	}
	return hex.EncodeToString(b[:])
}

// NewRequestID returns a process-unique request ID, e.g.
// "3fa9c12b-000000a4". One atomic add and one allocation per call.
func NewRequestID() string {
	return formatRequestID(idPrefix, idCounter.Add(1))
}

// formatRequestID renders prefix-n with n in hex, zero-padded to at
// least 8 digits: fmt's "%s-%08x" without boxing its arguments, whose
// allocations vary with n.
func formatRequestID(prefix string, n uint64) string {
	var buf [32]byte
	b := append(buf[:0], prefix...)
	b = append(b, '-')
	var digits [16]byte
	hex := strconv.AppendUint(digits[:0], n, 16)
	for i := len(hex); i < 8; i++ {
		b = append(b, '0')
	}
	return string(append(b, hex...))
}
