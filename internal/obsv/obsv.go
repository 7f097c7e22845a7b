// Package obsv is a zero-dependency, request-scoped tracing layer for
// the pmsd serving path. Each traced request carries one *Trace with
// child spans for the stages a request passes through — admission wait,
// coalesce wait, registry acquire (split cache-hit vs. materialize),
// batch compute, response write — so a slow request is attributable to a
// specific stage instead of showing up only in an endpoint-level latency
// histogram. The paper's evaluation turns on exactly this decomposition:
// addressing cost (registry materialization, retrieval tables) versus
// parallel-access cost (batch compute), and the tracer makes the two
// separable in a live server.
//
// Design constraints, in order:
//
//   - near-zero cost when a request is not sampled: Tracer.Start returns
//     a nil *Trace and every method on a nil *Trace is a no-op, so
//     unsampled requests pay one atomic add and a branch;
//   - lock-free recording on the sampled hot path for aggregates:
//     per-stage histograms are atomic power-of-two buckets, written with
//     plain atomic adds;
//   - bounded memory: complete traces land in a fixed-size buffer that
//     keeps only the slowest N, with an atomic threshold fast-path so
//     fast traces skip the lock entirely once the buffer is full.
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
// 2^0 … 2^27 (~134 s in µs), mirroring the serving metrics layer so the
// two /debug endpoints read the same way.
const NumBuckets = 28

// Histogram is a lock-free power-of-two bucketed distribution: bucket i
// counts observations v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i),
// so bucket i's inclusive upper bound is 2^i - 1. Recording is a few
// atomic adds; the zero Histogram is ready to use. It is shared beyond
// this package: internal/metrics reuses it for the domain-level conflict
// histograms so every histogram in the system buckets identically.
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

// Start begins a trace for one request, or returns nil when the request
// falls outside the sample. All *Trace methods are nil-safe, so callers
// thread the (possibly nil) trace through unconditionally.
func (t *Tracer) Start(id, endpoint string) *Trace {
	if t == nil || t.sampleEvery == 0 {
		return nil
	}
	t.started.Add(1)
	if t.sampleEvery > 1 && t.counter.Add(1)%t.sampleEvery != 0 {
		return nil
	}
	t.sampled.Add(1)
	return &Trace{
		tracer:   t,
		id:       id,
		endpoint: endpoint,
		start:    time.Now(),
		spans:    make([]SpanSnapshot, 0, 6),
	}
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

// Trace is one sampled request. Spans may be recorded from any
// goroutine (the batch worker records on behalf of coalesced requests);
// appends are mutex-guarded, aggregates are lock-free.
type Trace struct {
	tracer   *Tracer
	id       string
	endpoint string
	start    time.Time

	mu      sync.Mutex
	spans   []SpanSnapshot
	stageUS [numStages]int64
	tenant  string
	mapping string
	client  *ClientInfo
	done    bool
}

// ID returns the trace's request ID ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// SetClient attaches the client attempt metadata parsed from headers.
func (t *Trace) SetClient(ci ClientInfo) {
	if t == nil || ci.Attempt == 0 {
		return
	}
	t.mu.Lock()
	t.client = &ci
	t.mu.Unlock()
}

// SetTenant stamps the (sanitized) tenant identity onto the trace.
func (t *Trace) SetTenant(tenant string) {
	if t == nil || tenant == "" {
		return
	}
	t.mu.Lock()
	t.tenant = tenant
	t.mu.Unlock()
}

// SetMapping stamps the effective mapping key — the spec actually
// served after controller overrides — onto the trace.
func (t *Trace) SetMapping(key string) {
	if t == nil || key == "" {
		return
	}
	t.mu.Lock()
	t.mapping = key
	t.mu.Unlock()
}

// StageTotalsUS returns the per-stage microsecond totals accumulated by
// RecordSpan so far, indexed by Stage. Nil-safe (zeroes on a nil trace).
func (t *Trace) StageTotalsUS() [NumStages]int64 {
	var out [NumStages]int64
	if t == nil {
		return out
	}
	t.mu.Lock()
	out = t.stageUS
	t.mu.Unlock()
	return out
}

// RecordSpan records one stage span measured by the caller. start may
// come from another goroutine's clock reading; a zero start is ignored.
// The duration also feeds the tracer's lock-free per-stage histogram.
func (t *Trace) RecordSpan(stage Stage, start time.Time, d time.Duration) {
	if t == nil || start.IsZero() {
		return
	}
	us := d.Microseconds()
	t.tracer.stages[stage].Observe(us)
	t.mu.Lock()
	if !t.done {
		t.stageUS[stage] += us
		t.spans = append(t.spans, SpanSnapshot{
			Stage:   stage.String(),
			StartUS: start.Sub(t.start).Microseconds(),
			DurUS:   us,
		})
	}
	t.mu.Unlock()
}

var noopEnd = func() {}

// StartSpan opens a stage span on the calling goroutine and returns the
// closure that ends it. On a nil trace both sides are free.
func (t *Trace) StartSpan(stage Stage) func() {
	if t == nil {
		return noopEnd
	}
	start := time.Now()
	return func() { t.RecordSpan(stage, start, time.Since(start)) }
}

// Finish completes the trace with the response status: the total lands
// in the "total" histogram and the trace becomes a candidate for the
// slowest-N buffer. Spans recorded after Finish are dropped.
func (t *Trace) Finish(status int) {
	if t == nil {
		return
	}
	total := time.Since(t.start)
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	t.done = true
	snap := TraceSnapshot{
		ID:       t.id,
		Endpoint: t.endpoint,
		Tenant:   t.tenant,
		Mapping:  t.mapping,
		Status:   status,
		TotalUS:  total.Microseconds(),
		Client:   t.client,
		Spans:    t.spans,
	}
	t.mu.Unlock()
	t.tracer.stages[StageTotal].Observe(total.Microseconds())
	t.tracer.finished.Add(1)
	t.tracer.slow.offer(snap)
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

func (b *slowBuffer) offer(snap TraceSnapshot) {
	if snap.TotalUS <= b.min.Load() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.entries) < b.capacity {
		b.entries = append(b.entries, snap)
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
	if snap.TotalUS <= minTotal {
		return
	}
	b.entries[idx] = snap
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
// "3fa9c12b-000000a4". One atomic add per call.
func NewRequestID() string {
	return fmt.Sprintf("%s-%08x", idPrefix, idCounter.Add(1))
}
