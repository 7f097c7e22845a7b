// Package repro reproduces "Optimal Tree Access by Elementary and
// Composite Templates in Parallel Memory Systems" (Auletta, Das, De Vivo,
// Pinotti, Scarano; IPDPS 2001 / IEEE TPDS): algorithms for mapping
// complete binary trees onto parallel memory systems so that subtree,
// path, level and composite templates are accessed with few or no memory
// conflicts.
//
// The library lives under internal/ (see internal/core for the facade),
// runnable examples under examples/, command-line tools under cmd/, and
// the per-theorem benchmark harness in bench_test.go. internal/server and
// cmd/pmsd expose the mappings and simulator as a concurrent HTTP/JSON
// service with request coalescing and backpressure; internal/metrics
// adds the domain observability layer (per-module access accounting,
// template-family conflict histograms, a live monitor of the paper's
// theorem bounds) rendered at GET /metrics in Prometheus text format
// and watched by cmd/pmsstat. Batched color retrieval in the serving
// hot path runs through per-mapping kernels (coloring.BatchColorer,
// dispatched by coloring.ColorBatch; see README "Raw-speed retrieval"
// and EXPERIMENTS.md E21). internal/mapstore is the disk tier under the
// serving registry — checksummed block-aligned mapping artifacts,
// mmap'd warm starts, crash-safe spills (pmsd -store-dir; see README
// "Tiered storage" and EXPERIMENTS.md E22). The workload scenario layer
// serves the paper's applications end to end — /v1/heap/* and /v1/range
// with per-tenant admission — and internal/replay records live traffic
// into checksummed PMSTRC1 traces that replay deterministically
// (pmsd -record / -replay; see README "Workloads" and
// EXPERIMENTS.md E23). internal/controller is the adaptive mapping
// policy loop over the paper's central trade-off: it classifies each
// registry entry's live template mix, shadow-scores candidate mappings
// on sampled traffic, and migrates entries under hysteresis (pmsd
// -controller; see README "Adaptive mapping" and EXPERIMENTS.md E24).
// internal/flightrec is the forensics layer: an always-on black-box
// recorder (bounded event/frame/decision rings) with an SLO watchdog
// whose rules include the theorem-bound monitor as a must-be-zero
// invariant; breaches freeze checksummed PMSINC1 incident snapshots
// bundling a replayable worst-window trace, decoded and re-driven
// offline by cmd/pmsdoctor (pmsd -flightrec-dir / -slo-*,
// GET /debug/snapshot; see README "Forensics" and EXPERIMENTS.md E25).
// DESIGN.md maps every paper result to the
// module and experiment that reproduces it; EXPERIMENTS.md records
// claimed-versus-measured numbers.
package repro
