// GET /metrics: pmsd's one counter surface, in Prometheus text format.
// It renders every serving counter (endpoint request/error/latency
// series, per-tenant admission, backpressure and coalescing counters,
// registry counters with acquire attribution, the controller, flight
// recorder and disk tier, aggregated simulate counters including idle
// steps), the obsv per-stage trace histograms, and the
// domain-observability layer (per-module loads, load-balance gauges,
// per-family conflict histograms, the theorem-bound monitor).
// The rendering order is fixed and the wire format is pinned by golden
// tests — treat any diff in the exposition as an API change.
package server

import (
	"net/http"
	"sort"

	"repro/internal/flightrec"
	"repro/internal/mapstore"
	dm "repro/internal/metrics"
	"repro/internal/obsv"
)

// promPrefix namespaces every pmsd series.
const promPrefix = "pmsd"

// handleMetrics serves the exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	e := dm.NewExpo(w)
	writeServerMetrics(e, s.met)
	writeTracerMetrics(e, s.trc)
	dm.WriteDomain(e, promPrefix, s.dom)
}

func writeServerMetrics(e *dm.Expo, m *Metrics) {
	for i, ep := range endpoints {
		e.Counter(promPrefix+"_endpoint_requests_total", []dm.Label{{Name: "endpoint", Value: ep.name}}, m.endpoints[i].requests.Load())
	}
	for i, ep := range endpoints {
		e.Counter(promPrefix+"_endpoint_errors_4xx_total", []dm.Label{{Name: "endpoint", Value: ep.name}}, m.endpoints[i].errors4xx.Load())
	}
	for i, ep := range endpoints {
		e.Counter(promPrefix+"_endpoint_errors_5xx_total", []dm.Label{{Name: "endpoint", Value: ep.name}}, m.endpoints[i].errors5xx.Load())
	}
	for i, ep := range endpoints {
		e.Histogram(promPrefix+"_endpoint_latency_us", []dm.Label{{Name: "endpoint", Value: ep.name}}, &m.endpoints[i].latencyUS)
	}

	// Per-tenant admission series, sorted by tenant name. The table is
	// bounded (MaxTenants, overflow in "other"), so the label cardinality
	// is too.
	if m.tenants != nil {
		tenants := m.tenants.snapshot()
		for _, tn := range tenants {
			e.Counter(promPrefix+"_tenant_requests_total", []dm.Label{{Name: "tenant", Value: tn.Tenant}}, tn.Requests)
		}
		for _, tn := range tenants {
			e.Counter(promPrefix+"_tenant_rejected_total", []dm.Label{{Name: "tenant", Value: tn.Tenant}}, tn.Rejected)
		}
		for _, tn := range tenants {
			e.GaugeInt(promPrefix+"_tenant_inflight", []dm.Label{{Name: "tenant", Value: tn.Tenant}}, tn.Inflight)
		}
	}

	e.Counter(promPrefix+"_rejected_429_total", nil, m.rejected429.Load())
	e.GaugeInt(promPrefix+"_inflight", nil, m.inflight.Load())
	depth := 0
	if m.queueDepth != nil {
		depth = m.queueDepth()
	}
	e.GaugeInt(promPrefix+"_queue_depth", nil, int64(depth))
	e.Counter(promPrefix+"_batches_flushed_total", nil, m.batchesFlushed.Load())
	e.Counter(promPrefix+"_batches_rejected_total", nil, m.batchesRejected.Load())
	e.Counter(promPrefix+"_coalesced_jobs_total", nil, m.coalescedJobs.Load())
	e.Histogram(promPrefix+"_batch_size", nil, &m.batchSize)
	e.Counter(promPrefix+"_kernel_batches_total", nil, m.kernelBatches.Load())
	e.Counter(promPrefix+"_fallback_batches_total", nil, m.fallbackBatches.Load())
	e.Histogram(promPrefix+"_batch_compute_ns", nil, &m.batchComputeNS)

	e.Counter(promPrefix+"_registry_hits_total", nil, m.registryHits.Load())
	e.Counter(promPrefix+"_registry_misses_total", nil, m.registryMisses.Load())
	e.Counter(promPrefix+"_registry_evictions_total", nil, m.registryEvictions.Load())
	e.GaugeInt(promPrefix+"_registry_bytes", nil, m.registryBytes.Load())
	e.Counter(promPrefix+"_registry_acquire_hits_total", nil, m.registryAcquireHits.Load())
	e.Counter(promPrefix+"_registry_acquire_disk_hits_total", nil, m.registryAcquireDiskHits.Load())
	e.Counter(promPrefix+"_registry_acquire_materializes_total", nil, m.registryAcquireMaterializes.Load())

	// Controller series: the counters are written unconditionally (zeros
	// when the controller is off) for dashboard stability; the per-spec
	// dwell and shadow-score gauges only exist while it runs.
	e.Counter(promPrefix+"_controller_decisions_total", nil, m.controllerDecisions.Load())
	e.Counter(promPrefix+"_controller_migrations_total", nil, m.controllerMigrations.Load())
	e.Counter(promPrefix+"_controller_shadow_evals_total", nil, m.controllerShadowEvals.Load())
	if m.controller != nil {
		cs := m.controller()
		for _, en := range cs.Entries {
			e.GaugeInt(promPrefix+"_controller_migrations", []dm.Label{{Name: "spec", Value: en.Spec}}, en.Migrations)
		}
		for _, en := range cs.Entries {
			e.Gauge(promPrefix+"_controller_dwell_seconds", []dm.Label{{Name: "spec", Value: en.Spec}}, en.DwellSeconds)
		}
		for _, en := range cs.Entries {
			cands := make([]string, 0, len(en.Scores))
			for ck := range en.Scores {
				cands = append(cands, ck)
			}
			sort.Strings(cands)
			for _, ck := range cands {
				e.Gauge(promPrefix+"_controller_shadow_score",
					[]dm.Label{{Name: "spec", Value: en.Spec}, {Name: "candidate", Value: ck}}, en.Scores[ck])
			}
		}
	}

	// Flight recorder / SLO watchdog series: written unconditionally
	// (zeros when the recorder is off) like the controller counters. The
	// per-rule breach counter carries a rule label per fired rule.
	var fc flightrec.CountersSnapshot
	if m.flight != nil {
		fc = m.flight()
	}
	e.Counter(promPrefix+"_flightrec_events_total", nil, fc.Events)
	e.Counter(promPrefix+"_flightrec_events_evicted_total", nil, fc.EventsEvicted)
	e.Counter(promPrefix+"_flightrec_frames_total", nil, fc.Frames)
	e.Counter(promPrefix+"_flightrec_decisions_total", nil, fc.Decisions)
	e.Counter(promPrefix+"_flightrec_snapshots_total", nil, fc.Snapshots)
	e.Counter(promPrefix+"_flightrec_snapshot_errors_total", nil, fc.SnapshotErrors)
	e.Counter(promPrefix+"_flightrec_snapshots_rate_limited_total", nil, fc.SnapshotsRateLimited)
	e.Counter(promPrefix+"_slo_breaches_total", nil, fc.Breaches)
	e.Counter(promPrefix+"_slo_recoveries_total", nil, fc.Recoveries)
	if len(fc.RuleBreaches) > 0 {
		rules := make([]string, 0, len(fc.RuleBreaches))
		for rule := range fc.RuleBreaches {
			rules = append(rules, rule)
		}
		sort.Strings(rules)
		for _, rule := range rules {
			e.Counter(promPrefix+"_slo_rule_breaches_total",
				[]dm.Label{{Name: "rule", Value: rule}}, fc.RuleBreaches[rule])
		}
	}

	// Disk-tier series are written unconditionally (zeros when pmsd runs
	// memory-only) so dashboards keep a stable shape across deployments.
	var st mapstore.Stats
	var noLoads obsv.Histogram
	loadNS := &noLoads
	if m.store != nil {
		st = m.store.Stats()
		loadNS = m.store.LoadNS()
	}
	e.Counter(promPrefix+"_store_hits_total", nil, st.Hits)
	e.Counter(promPrefix+"_store_misses_total", nil, st.Misses)
	e.Counter(promPrefix+"_store_spills_total", nil, st.Spills)
	e.Counter(promPrefix+"_store_spill_drops_total", nil, st.SpillDrops)
	e.Counter(promPrefix+"_store_corrupt_total", nil, st.Corrupt)
	e.Counter(promPrefix+"_store_evictions_total", nil, st.Evictions)
	e.GaugeInt(promPrefix+"_store_bytes", nil, st.Bytes)
	e.GaugeInt(promPrefix+"_store_entries", nil, st.Entries)
	e.Histogram(promPrefix+"_store_load_ns", nil, loadNS)

	e.Counter(promPrefix+"_sim_batches_total", nil, m.simBatches.Load())
	e.Counter(promPrefix+"_sim_requests_total", nil, m.simRequests.Load())
	e.Counter(promPrefix+"_sim_cycles_total", nil, m.simCycles.Load())
	e.Counter(promPrefix+"_sim_conflicts_total", nil, m.simConflicts.Load())
	e.Counter(promPrefix+"_sim_idle_steps_total", nil, m.simIdleSteps.Load())
}

func writeTracerMetrics(e *dm.Expo, trc *obsv.Tracer) {
	snap := trc.Snapshot()
	e.Gauge(promPrefix+"_trace_sample_rate", nil, snap.SampleRate)
	e.Counter(promPrefix+"_trace_requests_seen_total", nil, snap.Started)
	e.Counter(promPrefix+"_trace_sampled_total", nil, snap.Sampled)
	e.Counter(promPrefix+"_trace_finished_total", nil, snap.Finished)
	trc.ForEachStage(func(st obsv.Stage, h *obsv.Histogram) {
		if c, _, _ := h.Load(); c == 0 {
			return
		}
		e.Histogram(promPrefix+"_trace_stage_us", []dm.Label{{Name: "stage", Value: st.String()}}, h)
	})
}
