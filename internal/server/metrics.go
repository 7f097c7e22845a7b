// Serving metrics: lock-free counters and power-of-two histograms exposed
// as a /debug/vars-style JSON snapshot. Everything here is written on the
// hot path, so the recording side is a single atomic add; aggregation cost
// is paid only by the scrape.
package server

import (
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/flightrec"
	"repro/internal/mapstore"
	dm "repro/internal/metrics"
	"repro/internal/obsv"
	"repro/internal/pms"
)

// The disk tier's load histogram must share obsv.Histogram's geometry
// for its buckets to translate label-for-label.
var _ = [1]struct{}{}[obsv.NumBuckets-mapstore.LoadBuckets]

// HistogramSnapshot is the exported form of a histogram.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	Sum     int64            `json:"sum"`
	Mean    float64          `json:"mean"`
	Buckets map[string]int64 `json:"buckets,omitempty"` // upper bound → count, zero buckets omitted
}

func histSnapshot(count, sum int64, buckets [obsv.NumBuckets]int64) HistogramSnapshot {
	s := HistogramSnapshot{Count: count, Sum: sum}
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
		s.Buckets = make(map[string]int64)
		for i, c := range buckets {
			if c > 0 {
				s.Buckets[obsv.BucketLabel(i)] = c
			}
		}
	}
	return s
}

// endpointMetrics tracks one API endpoint.
type endpointMetrics struct {
	requests  atomic.Int64
	errors4xx atomic.Int64
	errors5xx atomic.Int64
	latencyUS obsv.Histogram
}

// EndpointSnapshot is the exported form of endpointMetrics.
type EndpointSnapshot struct {
	Requests  int64             `json:"requests"`
	Errors4xx int64             `json:"errors_4xx"`
	Errors5xx int64             `json:"errors_5xx"`
	LatencyUS HistogramSnapshot `json:"latency_us"`
}

// Metrics is the server-wide metrics registry.
type Metrics struct {
	color        endpointMetrics
	templateCost endpointMetrics
	simulate     endpointMetrics
	heapRun      endpointMetrics
	heapWorkload endpointMetrics
	rangeQuery   endpointMetrics

	// tenants is the per-tenant admission table, wired at construction.
	tenants *tenantTable

	rejected429     atomic.Int64
	inflight        atomic.Int64
	batchesFlushed  atomic.Int64
	batchesRejected atomic.Int64 // coalesced batches failed because the pool queue was full
	coalescedJobs   atomic.Int64 // singleton requests that shared a flushed batch of size ≥ 2
	batchSize       obsv.Histogram

	// Batch-compute path attribution: a kernel batch was colored by the
	// mapping's ColorBatch kernel in one pass; a fallback batch paid the
	// per-node Color interface loop (mapping without a kernel, or the
	// kernel disabled for A/B benching). batchComputeNS times the compute
	// itself, whichever path ran — nanoseconds, because a kernel batch of
	// 64 completes well under a microsecond.
	kernelBatches   atomic.Int64
	fallbackBatches atomic.Int64
	batchComputeNS  obsv.Histogram

	registryHits      atomic.Int64
	registryMisses    atomic.Int64
	registryEvictions atomic.Int64
	registryBytes     atomic.Int64
	// Acquire attribution, split the way the tracing layer splits its
	// registry spans: a hit is an acquire answered from a finished cache
	// entry; a disk hit was resolved from the mapping store (mmap load,
	// no build); everything else (fresh build or a wait on another
	// request's in-flight build) pays materialization latency.
	registryAcquireHits         atomic.Int64
	registryAcquireDiskHits     atomic.Int64
	registryAcquireMaterializes atomic.Int64

	// Controller counters: decisions is every policy evaluation event
	// (hold or migrate), migrations counts entry switches, shadowEvals
	// counts candidate replays. controller renders the per-spec state
	// when the controller runs; nil otherwise.
	controllerDecisions   atomic.Int64
	controllerMigrations  atomic.Int64
	controllerShadowEvals atomic.Int64
	controller            func() *ControllerSnapshot

	// store is the attached disk tier; nil when pmsd runs memory-only.
	// Its counters live in the mapstore package and are snapshotted on
	// scrape.
	store *mapstore.Store

	// Aggregated pms counters from /v1/simulate replays, including the
	// IdleSteps counter the simulator has tracked since PR 1 but the
	// serving layer never surfaced.
	simBatches   atomic.Int64
	simRequests  atomic.Int64
	simCycles    atomic.Int64
	simConflicts atomic.Int64
	simIdleSteps atomic.Int64

	queueDepth func() int // wired to the worker pool at server construction
	domain     *dm.Domain // wired at server construction; nil when disabled
	// flight reads the flight recorder's counter surface; nil when the
	// recorder is disabled.
	flight func() flightrec.CountersSnapshot
}

// MetricsSnapshot is the /debug/vars JSON document.
type MetricsSnapshot struct {
	Color        EndpointSnapshot `json:"color"`
	TemplateCost EndpointSnapshot `json:"template_cost"`
	Simulate     EndpointSnapshot `json:"simulate"`
	HeapRun      EndpointSnapshot `json:"heap_run"`
	HeapWorkload EndpointSnapshot `json:"heap_workload"`
	RangeQuery   EndpointSnapshot `json:"range_query"`

	// Tenants lists per-tenant admission counters, sorted by tenant
	// name; empty until the first request arrives.
	Tenants []TenantSnapshot `json:"tenants,omitempty"`

	Rejected429     int64             `json:"rejected_429"`
	Inflight        int64             `json:"inflight"`
	QueueDepth      int               `json:"queue_depth"`
	BatchesFlushed  int64             `json:"batches_flushed"`
	BatchesRejected int64             `json:"batches_rejected"`
	CoalescedJobs   int64             `json:"coalesced_jobs"`
	BatchSize       HistogramSnapshot `json:"batch_size"`
	KernelBatches   int64             `json:"kernel_batches"`
	FallbackBatches int64             `json:"fallback_batches"`
	BatchComputeNS  HistogramSnapshot `json:"batch_compute_ns"`

	RegistryHits                int64 `json:"registry_hits"`
	RegistryMisses              int64 `json:"registry_misses"`
	RegistryEvictions           int64 `json:"registry_evictions"`
	RegistryBytes               int64 `json:"registry_bytes"`
	RegistryAcquireHits         int64 `json:"registry_acquire_hits"`
	RegistryAcquireDiskHits     int64 `json:"registry_acquire_disk_hits"`
	RegistryAcquireMaterializes int64 `json:"registry_acquire_materializes"`

	ControllerDecisions   int64 `json:"controller_decisions"`
	ControllerMigrations  int64 `json:"controller_migrations"`
	ControllerShadowEvals int64 `json:"controller_shadow_evals"`
	// Controller is the adaptive-mapping policy state; omitted when the
	// controller is disabled.
	Controller *ControllerSnapshot `json:"controller,omitempty"`

	// Store is the disk-tier snapshot; omitted when no store is attached.
	Store *StoreSnapshot `json:"store,omitempty"`

	SimBatches   int64 `json:"sim_batches"`
	SimRequests  int64 `json:"sim_requests"`
	SimCycles    int64 `json:"sim_cycles"`
	SimConflicts int64 `json:"sim_conflicts"`
	SimIdleSteps int64 `json:"sim_idle_steps"`

	// Domain is the model-level accounting snapshot (module loads, family
	// conflict histograms, bound monitor); omitted when accounting is
	// disabled.
	Domain *dm.DomainSnapshot `json:"domain,omitempty"`

	// FlightRec is the flight recorder / SLO watchdog counter surface;
	// omitted when the recorder is disabled.
	FlightRec *flightrec.CountersSnapshot `json:"flightrec,omitempty"`
}

func (em *endpointMetrics) snapshot() EndpointSnapshot {
	return EndpointSnapshot{
		Requests:  em.requests.Load(),
		Errors4xx: em.errors4xx.Load(),
		Errors5xx: em.errors5xx.Load(),
		LatencyUS: histSnapshot(em.latencyUS.Load()),
	}
}

// Snapshot captures a consistent-enough view of all counters. Individual
// counters are read atomically; cross-counter skew during a concurrent
// scrape is acceptable for observability.
func (m *Metrics) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		Color:        m.color.snapshot(),
		TemplateCost: m.templateCost.snapshot(),
		Simulate:     m.simulate.snapshot(),
		HeapRun:      m.heapRun.snapshot(),
		HeapWorkload: m.heapWorkload.snapshot(),
		RangeQuery:   m.rangeQuery.snapshot(),

		Rejected429:     m.rejected429.Load(),
		Inflight:        m.inflight.Load(),
		BatchesFlushed:  m.batchesFlushed.Load(),
		BatchesRejected: m.batchesRejected.Load(),
		CoalescedJobs:   m.coalescedJobs.Load(),
		BatchSize:       histSnapshot(m.batchSize.Load()),
		KernelBatches:   m.kernelBatches.Load(),
		FallbackBatches: m.fallbackBatches.Load(),
		BatchComputeNS:  histSnapshot(m.batchComputeNS.Load()),

		RegistryHits:                m.registryHits.Load(),
		RegistryMisses:              m.registryMisses.Load(),
		RegistryEvictions:           m.registryEvictions.Load(),
		RegistryBytes:               m.registryBytes.Load(),
		RegistryAcquireHits:         m.registryAcquireHits.Load(),
		RegistryAcquireDiskHits:     m.registryAcquireDiskHits.Load(),
		RegistryAcquireMaterializes: m.registryAcquireMaterializes.Load(),

		ControllerDecisions:   m.controllerDecisions.Load(),
		ControllerMigrations:  m.controllerMigrations.Load(),
		ControllerShadowEvals: m.controllerShadowEvals.Load(),

		SimBatches:   m.simBatches.Load(),
		SimRequests:  m.simRequests.Load(),
		SimCycles:    m.simCycles.Load(),
		SimConflicts: m.simConflicts.Load(),
		SimIdleSteps: m.simIdleSteps.Load(),
	}
	if m.queueDepth != nil {
		s.QueueDepth = m.queueDepth()
	}
	if m.tenants != nil {
		s.Tenants = m.tenants.snapshot()
	}
	if m.domain != nil {
		d := m.domain.Snapshot()
		s.Domain = &d
	}
	if m.store != nil {
		ss := storeSnapshot(m.store.Stats())
		s.Store = &ss
	}
	if m.controller != nil {
		s.Controller = m.controller()
	}
	if m.flight != nil {
		fc := m.flight()
		s.FlightRec = &fc
	}
	return s
}

// StoreSnapshot is the disk tier's exported counters.
type StoreSnapshot struct {
	Hits       int64             `json:"hits"`
	Misses     int64             `json:"misses"`
	Spills     int64             `json:"spills"`
	SpillDrops int64             `json:"spill_drops"`
	Corrupt    int64             `json:"corrupt"`
	Evictions  int64             `json:"evictions"`
	Bytes      int64             `json:"bytes"`
	Entries    int64             `json:"entries"`
	LoadNS     HistogramSnapshot `json:"load_ns"`
}

// storeSnapshot converts mapstore counters into the exported form. The
// store's load histogram uses the same power-of-two bucketing as the
// serving histograms, so the labels translate directly.
func storeSnapshot(st mapstore.Stats) StoreSnapshot {
	return StoreSnapshot{
		Hits:       st.Hits,
		Misses:     st.Misses,
		Spills:     st.Spills,
		SpillDrops: st.SpillDrops,
		Corrupt:    st.Corrupt,
		Evictions:  st.Evictions,
		Bytes:      st.Bytes,
		Entries:    st.Entries,
		LoadNS:     histSnapshot(st.LoadNSCount, st.LoadNSSum, st.LoadNSBuckets),
	}
}

// recordSim folds one /v1/simulate replay's engine counters into the
// server-wide aggregates.
func (m *Metrics) recordSim(st pms.Stats) {
	m.simBatches.Add(st.Batches)
	m.simRequests.Add(st.Requests)
	m.simCycles.Add(st.Cycles)
	m.simConflicts.Add(st.Conflicts)
	m.simIdleSteps.Add(st.IdleSteps)
}

// endpoint returns the per-endpoint metrics for a handler name.
func (m *Metrics) endpoint(name string) *endpointMetrics {
	switch name {
	case "color":
		return &m.color
	case "template_cost":
		return &m.templateCost
	case "simulate":
		return &m.simulate
	case "heap_run":
		return &m.heapRun
	case "heap_workload":
		return &m.heapWorkload
	case "range_query":
		return &m.rangeQuery
	default:
		return nil
	}
}

// observe records one completed request on an endpoint.
func (em *endpointMetrics) observe(status int, d time.Duration) {
	em.requests.Add(1)
	switch {
	case status >= 500:
		em.errors5xx.Add(1)
	case status >= 400:
		em.errors4xx.Add(1)
	}
	em.latencyUS.Observe(d.Microseconds())
}

// varsHandler serves the metrics snapshot as JSON.
func (m *Metrics) varsHandler(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, m.Snapshot())
}
