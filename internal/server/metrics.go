// Serving metrics: lock-free counters and power-of-two histograms that
// GET /metrics renders (prom.go). Everything here is written on the hot
// path, so the recording side is a single atomic add; aggregation cost is
// paid only by the scrape.
package server

import (
	"sync/atomic"
	"time"

	"repro/internal/flightrec"
	"repro/internal/mapstore"
	"repro/internal/obsv"
	"repro/internal/pms"
)

// endpointMetrics tracks one API endpoint.
type endpointMetrics struct {
	requests  atomic.Int64
	errors4xx atomic.Int64
	errors5xx atomic.Int64
	latencyUS obsv.Histogram
}

// Metrics is the server-wide metrics registry.
type Metrics struct {
	// endpoints is indexed like the endpoint table (server.go).
	endpoints [numEndpoints]endpointMetrics

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
	// per-node Color interface loop (a mapping without a kernel).
	// batchComputeNS times the compute itself, whichever path ran —
	// nanoseconds, because a kernel batch of 64 completes well under a
	// microsecond.
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
	// flight reads the flight recorder's counter surface; nil when the
	// recorder is disabled.
	flight func() flightrec.CountersSnapshot
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
