// Package server is the pmsd serving layer: an HTTP/JSON front end for
// the paper's node→module mappings, template conflict costs, and the
// parallel memory system simulator. It is built for sustained concurrent
// traffic rather than one-shot CLI use:
//
//   - a sharded registry lazily materializes mappings (COLOR retriever
//     tables, LABEL-TREE micro tables, baselines) under an LRU byte
//     budget, so hot specs are built once and shared;
//   - singleton color lookups coalesce by group commit: a lookup's group
//     is queued on the worker pool at once, and lookups for the same
//     mapping join it until a worker takes it, so batches form only while
//     the workers are busy and amortize registry resolution and dispatch;
//   - a bounded worker pool applies backpressure: past the inflight limit
//     the server answers 429 + Retry-After instead of queueing unboundedly;
//   - shutdown is graceful: accepted requests drain to completion while
//     new ones are refused;
//   - /metrics exposes request counts, latency and batch-size
//     histograms, queue depth, cache counters and the theorem-bound
//     monitor in Prometheus text format; /debug/pprof is wired;
//   - each /v1 request fills one pooled record (request.go) that every
//     layer writes in place; on sampled requests its obsv trace part
//     holds per-stage spans (admission wait, coalesce wait, registry
//     hit/materialize, batch compute, response write), and the same
//     record becomes the request's flight event; /debug/requests serves
//     the per-stage histograms and the slowest complete traces, and
//     worker tasks run under pprof labels keyed by mapping spec.
//
// Endpoints: POST /v1/color, POST /v1/template-cost, POST /v1/simulate,
// POST /v1/heap/run, POST /v1/heap/workload, POST /v1/range,
// GET /metrics, GET /debug/requests, GET /debug/snapshot, GET /healthz,
// /debug/pprof/*.
//
// Each /v1 route is declared once, in the endpoint table (endpoints),
// which the mux, the per-endpoint metrics, /metrics, the flight
// recorder's frames and the capture layer's path attribution all read.
// A /v1 handler decodes its body, validates and resolves the mapping in
// one call (resolveSpec), runs its own checks, and hands its compute to
// serve, the one admitted section: admission, one worker-pool task, and
// the reply. Only a coalesced singleton lookup admits itself, because
// its work joins a coalescer group instead of a task of its own.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	rpprof "runtime/pprof"
	"sync/atomic"
	"time"

	"repro/internal/coloring"
	"repro/internal/flightrec"
	"repro/internal/mapstore"
	dm "repro/internal/metrics"
	"repro/internal/obsv"
	"repro/internal/pms"
	"repro/internal/replay"
	"repro/internal/template"
	"repro/internal/tree"
)

// Config tunes the server. Zero values take the documented defaults.
type Config struct {
	// Addr is the listen address; ":0" picks an ephemeral port.
	Addr string
	// Workers is the size of the worker pool (default 4).
	Workers int
	// MaxInflight bounds admitted-but-unfinished requests; beyond it the
	// server sheds load with 429 (default 256).
	MaxInflight int
	// MaxBatch caps a group-commit batch of singleton color lookups
	// (default 64; 1 disables coalescing). A group is queued as soon as it
	// opens and takes joiners until a worker picks it up, so an idle
	// worker serves a lookup at once.
	MaxBatch int
	// CacheBudgetBytes bounds the mapping registry (default 256 MiB).
	CacheBudgetBytes int64
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// MaxColorNodes caps the nodes of one explicit /v1/color batch
	// (default 4096).
	MaxColorNodes int
	// MaxSimBatches / MaxSimItems bound one /v1/simulate replay
	// (defaults 4096 / 1<<20). MaxSimItems also caps the total items of
	// one /v1/range request, which walks every node in every range.
	MaxSimBatches int
	MaxSimItems   int
	// MaxHeapOps bounds one /v1/heap/* operation sequence (default 65536).
	MaxHeapOps int
	// MaxRangeQueries bounds the ranges of one /v1/range request
	// (default 1024).
	MaxRangeQueries int
	// TenantMaxInflight caps one tenant's admitted-but-unfinished
	// requests (default MaxInflight: per-tenant fairness off, counters
	// still tracked). Set below MaxInflight so one hot tenant cannot
	// starve the rest.
	TenantMaxInflight int
	// MaxTenants bounds the per-tenant accounting table; tenants beyond
	// it are lumped into the "other" bucket (default 64).
	MaxTenants int
	// DisableDomainMetrics turns off the model-level accounting layer
	// (per-module loads, family conflict histograms, the theorem-bound
	// monitor). On by default: recording is a handful of atomic adds per
	// request, priced by pmsbench's ablation.domain_p50_us.
	DisableDomainMetrics bool
	// TraceSampleRate is the fraction of requests traced by the obsv
	// layer (default 1.0; negative disables tracing). Full sampling is
	// priced by pmsbench's ablation.obsv_p50_us.
	TraceSampleRate float64
	// TraceSlowest is how many of the slowest complete traces
	// /debug/requests retains (default 32).
	TraceSlowest int
	// WorkerDelay injects per-task latency in the worker pool, slept by
	// each task after a coalesced group is sealed. Load and backpressure
	// testing only; leave zero in production.
	WorkerDelay time.Duration
	// Store, when set, is the disk tier under the mapping registry:
	// evicted table-backed mappings spill into it, registry misses probe
	// it (mmap load) before materializing, and Shutdown flushes resident
	// mappings into it for the next process's warm start. The server
	// takes ownership and closes it during Shutdown.
	Store *mapstore.Store
	// Controller enables the adaptive mapping controller: a per-spec
	// policy loop that classifies the live template mix, shadow-scores
	// candidate mappings against sampled traffic, and migrates registry
	// entries under hysteresis. Requires domain metrics (the mix
	// classifier reads the per-spec counters).
	Controller bool
	// ControllerInterval is the policy tick period (default 2s).
	ControllerInterval time.Duration
	// ShadowSampleRate is the fraction of observed template instances
	// recorded into the per-spec shadow replay reservoirs (default 0.25;
	// negative records nothing, idling the controller).
	ShadowSampleRate float64
	// ControllerMinDwell is the minimum time between migrations of one
	// spec (default 3× ControllerInterval). ControllerMinSamples passes
	// through to the hysteresis core (default 16); the core's minimum
	// improvement is its own default, 0.25.
	ControllerMinDwell   time.Duration
	ControllerMinSamples int
	// Middleware, when set, wraps the route mux on the listener path
	// (Start / the http.Server built by New). The fault-injection harness
	// hooks in here; Handler() itself stays unwrapped so tests can reach
	// the bare routes.
	Middleware func(http.Handler) http.Handler
	// DisableFlightRec turns off the always-on flight recorder and SLO
	// watchdog (internal/flightrec). On by default: recording a request
	// is one body read and one mutex push, priced by pmsbench's
	// ablation.flightrec_p50_us.
	DisableFlightRec bool
	// FlightRecDir is where watchdog-triggered incident snapshots land;
	// empty disables automatic writes (GET /debug/snapshot still works).
	FlightRecDir string
	// FlightRecMeta is stamped into every incident snapshot; pmsd records
	// the chaos-injector config here so pmsdoctor -replay can rebuild it.
	FlightRecMeta map[string]string
	// SLO configures the watchdog rules and tick cadence.
	SLO flightrec.SLOConfig
	// Tape, when set, receives every /v1 POST the capture point reads,
	// in arrival order (pmsd -record). It works with or without the
	// flight recorder.
	Tape *replay.Tape
	// Logger receives the server's structured log lines
	// (default slog.Default()).
	Logger *slog.Logger

	// workerHook runs before each pool task; tests use it to gate workers.
	workerHook func()
	// flightManual suppresses the background watchdog loop; tests and the
	// incident replayer drive Server.FlightTick with their own clocks.
	flightManual bool
	// flightNow is the flight recorder's clock (default time.Now).
	flightNow func() time.Time
	// flightEvents sizes the flight recorder's captures ring (default
	// flightrec's 2048); tests shrink it to exercise eviction.
	flightEvents int
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.CacheBudgetBytes <= 0 {
		c.CacheBudgetBytes = 256 << 20
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxColorNodes <= 0 {
		c.MaxColorNodes = 4096
	}
	if c.MaxSimBatches <= 0 {
		c.MaxSimBatches = 4096
	}
	if c.MaxSimItems <= 0 {
		c.MaxSimItems = 1 << 20
	}
	if c.MaxHeapOps <= 0 {
		c.MaxHeapOps = 1 << 16
	}
	if c.MaxRangeQueries <= 0 {
		c.MaxRangeQueries = 1024
	}
	if c.TenantMaxInflight <= 0 {
		c.TenantMaxInflight = c.MaxInflight
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 64
	}
	if c.TraceSampleRate == 0 {
		c.TraceSampleRate = 1
	}
	if c.TraceSampleRate < 0 {
		c.TraceSampleRate = 0
	}
	if c.TraceSlowest <= 0 {
		c.TraceSlowest = 32
	}
	if c.ControllerInterval <= 0 {
		c.ControllerInterval = 2 * time.Second
	}
	if c.ShadowSampleRate == 0 {
		c.ShadowSampleRate = 0.25
	}
	if c.ControllerMinDwell <= 0 {
		c.ControllerMinDwell = 3 * c.ControllerInterval
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.flightNow == nil {
		c.flightNow = time.Now
	}
	return c
}

// errOverloaded is returned by the shed-load path.
var errOverloaded = &apiError{status: http.StatusTooManyRequests, msg: "server overloaded, retry later"}

// errDraining is returned while the server is shutting down.
var errDraining = &apiError{status: http.StatusServiceUnavailable, msg: "server shutting down"}

// Server is one pmsd instance.
type Server struct {
	cfg      Config
	met      *Metrics
	reg      *Registry
	pool     *pool
	coal     *coalescer
	trc      *obsv.Tracer
	dom      *dm.Domain          // nil when domain metrics are disabled
	ctl      *serverController   // nil when the controller is disabled
	fr       *flightrec.Recorder // nil when the flight recorder is disabled
	arrivals atomic.Uint64       // capture sequence numbers
	logger   *slog.Logger
	httpSrv  *http.Server
	listener net.Listener
	draining atomic.Bool
}

// New assembles a server from the config; call Start (or serve the
// Handler yourself) afterwards.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	met := &Metrics{}
	reg := NewRegistry(cfg.CacheBudgetBytes, met)
	if cfg.Store != nil {
		reg.AttachStore(cfg.Store)
		met.store = cfg.Store
	}
	// Queue depth equals the admission limit: every admitted request maps
	// to at most one queued unit, so admission is the only shed point.
	p := newPool(cfg.Workers, cfg.MaxInflight, cfg.WorkerDelay, cfg.workerHook)
	met.queueDepth = p.depth
	met.tenants = newTenantTable(cfg.MaxTenants)
	s := &Server{
		cfg:  cfg,
		met:  met,
		reg:  reg,
		pool: p,
		coal: newCoalescer(cfg.MaxBatch, p, reg, met),
		trc:  obsv.New(obsv.Config{SampleRate: cfg.TraceSampleRate, SlowestN: cfg.TraceSlowest}),
	}
	if !cfg.DisableDomainMetrics {
		s.dom = dm.NewDomain(0)
	}
	if cfg.Controller && s.dom != nil {
		s.ctl = newServerController(s)
		met.controller = s.ctl.snapshot
		s.ctl.start()
	}
	s.logger = cfg.Logger
	if !cfg.DisableFlightRec {
		s.fr = flightrec.New(flightrec.Config{
			Events: cfg.flightEvents,
			SLO:    cfg.SLO,
			Dir:    cfg.FlightRecDir,
			Meta:   cfg.FlightRecMeta,
			Frame:  s.metricFrame,
			Traces: func() []obsv.TraceSnapshot { return s.trc.Snapshot().Slowest },
			Now:    cfg.flightNow,
			Logger: cfg.Logger,
		})
		met.flight = s.fr.Counters
	}
	h := http.Handler(s.Handler())
	if cfg.Middleware != nil {
		h = cfg.Middleware(h)
	}
	// Capture wraps OUTERMOST — outside the chaos middleware — so flight
	// events record the response the client saw and the replayable trace
	// includes requests chaos answered for itself. It owns each /v1
	// request's record, so it wraps the listener with or without a sink.
	h = s.captureMiddleware(h)
	s.httpSrv = &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
	}
	if s.fr != nil && !cfg.flightManual {
		s.fr.Start()
	}
	return s
}

// endpoint is one /v1 route: its path, the name its metrics series and
// flight events carry, and its handler.
type endpoint struct {
	path   string
	name   string
	handle func(*Server, http.ResponseWriter, *http.Request, *request)
}

// numEndpoints sizes Metrics' per-endpoint array. The table's own len
// would make the types recursive: Metrics → endpoints → handler →
// Server → Metrics.
const numEndpoints = 6

// endpoints declares each /v1 route once. The mux, Metrics (indexed
// like this table), /metrics, the flight recorder's metric frames and
// the capture layer's path attribution all read it, in this order.
var endpoints = [numEndpoints]endpoint{
	{"/v1/color", "color", (*Server).handleColor},
	{"/v1/template-cost", "template_cost", (*Server).handleTemplateCost},
	{"/v1/simulate", "simulate", (*Server).handleSimulate},
	{"/v1/heap/run", "heap_run", (*Server).handleHeapRun},
	{"/v1/heap/workload", "heap_workload", (*Server).handleHeapWorkload},
	{"/v1/range", "range_query", (*Server).handleRange},
}

// Handler returns the full route mux, usable without a listener.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for i, ep := range endpoints {
		mux.HandleFunc("POST "+ep.path, s.instrument(i))
	}
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	mux.HandleFunc("GET /debug/snapshot", s.handleFlightSnapshot)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Start binds the listen address and serves in the background. The bound
// address is available from Addr afterwards.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.listener = ln
	go func() { _ = s.httpSrv.Serve(ln) }()
	return nil
}

// Addr returns the bound listen address (after Start).
func (s *Server) Addr() string {
	if s.listener == nil {
		return s.cfg.Addr
	}
	return s.listener.Addr().String()
}

// Shutdown drains gracefully: new requests are refused with 503, the
// coalescer's open groups (all already queued) run, in-flight handlers
// run to completion (bounded by ctx), and only then do the workers
// exit. With a store attached, the resident memory tier is then flushed
// to disk (persisting the warm set) and the store closed — strictly after
// the workers, because mmap-backed mappings are invalid once the store
// unmaps its regions.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	// Stop the watchdog first: a mid-drain tick would snapshot a server
	// that is half shut down.
	s.fr.Stop()
	// Stop the controller loop next: a migration mid-drain would race
	// the registry flush and the store close below.
	if s.ctl != nil {
		s.ctl.stopLoop()
	}
	s.coal.shutdown()
	err := s.httpSrv.Shutdown(ctx)
	// Even if ctx expired above, admitted handlers may still be talking to
	// the pool; the workers must outlive every admitted request, so wait
	// for the inflight count to reach zero before closing the queue.
	for s.met.inflight.Load() > 0 {
		time.Sleep(100 * time.Microsecond)
	}
	s.pool.close()
	if s.cfg.Store != nil {
		s.reg.FlushToStore()
		if cerr := s.cfg.Store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// WarmStart pre-admits up to n of the store's hottest mappings into the
// registry, so the first requests after a restart are memory hits
// instead of materializations. Returns how many keys were admitted.
func (s *Server) WarmStart(n int) int {
	if s.cfg.Store == nil || n <= 0 {
		return 0
	}
	admitted := 0
	for _, key := range s.cfg.Store.Hottest(n) {
		if s.reg.Preadmit(key) {
			admitted++
		}
	}
	// Re-apply persisted controller decisions before serving traffic, so
	// a restart keeps serving the migrated mapping — from the preadmitted
	// disk copy, not a rematerialization.
	for from, raw := range s.cfg.Store.Decisions() {
		var spec MappingSpec
		if err := json.Unmarshal([]byte(raw), &spec); err != nil || spec.Validate() != nil {
			continue
		}
		s.reg.SetOverride(from, spec)
		s.reg.Preadmit(spec.Key())
	}
	return admitted
}

// instrument wraps the i-th endpoint's handler with request/latency/
// error accounting and the trace lifecycle of the request's record: the
// request ID comes from the client's X-Request-Id (generated server-side
// when absent and tracing is on) and is echoed back, client attempt
// metadata is joined onto a traced record, and the trace finishes with
// the response status once the handler returns. The record comes from
// the capture middleware; under a bare Handler, instrument takes one
// itself.
func (s *Server) instrument(i int) http.HandlerFunc {
	ep, em := &endpoints[i], &s.met.endpoints[i]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec, captured := r.Context().Value(requestKey{}).(*request)
		if !captured {
			rec = requestPool.Get().(*request)
		}
		tr := &rec.trace
		tr.ID = r.Header.Get(obsv.HeaderRequestID)
		if tr.ID == "" && s.trc.Enabled() {
			tr.ID = obsv.NewRequestID()
		}
		if tr.ID != "" {
			w.Header().Set(obsv.HeaderRequestID, tr.ID)
		}
		tr.Endpoint = ep.name
		tr.Tenant = sanitizeTenant(r.Header.Get(TenantHeader))
		s.trc.Sample(tr, start)
		if tr.Traced() {
			tr.Client = clientInfoFromHeaders(r.Header)
		}
		sw := &rec.inner
		*sw = statusWriter{ResponseWriter: w, status: http.StatusOK, timed: tr.Traced()}
		ep.handle(s, sw, r, rec)
		tr.Span(obsv.StageResponseWrite, sw.writeStart, sw.writeDur)
		tr.Finish(sw.status)
		em.observe(sw.status, time.Since(start))
		if !captured {
			putRequest(rec)
		}
	}
}

// handleDebugRequests serves the tracer snapshot: per-stage histograms
// plus the slowest complete traces, slowest first.
func (s *Server) handleDebugRequests(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.trc.Snapshot())
}

// admit reserves one inflight slot globally and one against the
// request's tenant cap, or reports why not. release must be called
// exactly once when the reply is written. A request shed at either
// layer counts on rejected429 and the tenant's rejected counter, so
// fairness pressure is attributable per tenant.
func (s *Server) admit(r *http.Request) (release func(), err *apiError) {
	tc := s.met.tenants.get(sanitizeTenant(r.Header.Get(TenantHeader)))
	tc.requests.Add(1)
	if s.draining.Load() {
		return nil, errDraining
	}
	if n := s.met.inflight.Add(1); n > int64(s.cfg.MaxInflight) {
		s.met.inflight.Add(-1)
		s.met.rejected429.Add(1)
		tc.rejected.Add(1)
		return nil, errOverloaded
	}
	if n := tc.inflight.Add(1); n > int64(s.cfg.TenantMaxInflight) {
		tc.inflight.Add(-1)
		s.met.inflight.Add(-1)
		s.met.rejected429.Add(1)
		tc.rejected.Add(1)
		return nil, errOverloaded
	}
	return func() {
		tc.inflight.Add(-1)
		s.met.inflight.Add(-1)
	}, nil
}

// serve is the admitted section of every /v1 request but a coalesced
// singleton lookup: it admits r, runs one task on the worker pool, and
// writes the reply, compute's result as JSON or its error through
// writeResultError. The queue never rejects an admitted request (it is
// sized to the admission limit); the 429 fallback exists for defense in
// depth. The task runs under a pprof label carrying the mapping key (CPU
// profiles segment by spec) and records on tr the queueing delay
// (admission_wait), the registry acquire as a cache-hit or materialize
// span, and compute itself (batch_compute).
//
// The task writes the result, the error and every span before it closes
// done, and serve reads them only after its receive from done sees the
// close. serve returns without that receive only when the queue refused
// the task, which then never runs, so no worker touches tr after serve
// returns (see request).
func serve[T any](s *Server, w http.ResponseWriter, r *http.Request, tr *obsv.Record, spec MappingSpec, compute func(coloring.Mapping) (T, error)) {
	release, aerr := s.admit(r)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	defer release()
	var submitted time.Time
	if tr.Traced() {
		submitted = time.Now()
	}
	var out struct {
		resp T
		err  error
	}
	done := make(chan struct{})
	task := func() {
		defer close(done)
		s.pool.access()
		tr.SpanSince(obsv.StageAdmissionWait, submitted)
		rpprof.Do(context.Background(), rpprof.Labels("mapping", spec.Key()), func(context.Context) {
			start := time.Now()
			m, hit, err := s.reg.AcquireInfo(spec)
			stage := obsv.StageRegistryMaterialize
			if hit {
				stage = obsv.StageRegistryHit
			}
			tr.SpanSince(stage, start)
			if err != nil {
				out.err = err
				return
			}
			start = time.Now()
			out.resp, out.err = compute(m)
			tr.SpanSince(obsv.StageBatchCompute, start)
		})
	}
	if !s.pool.trySubmit(task) {
		s.met.rejected429.Add(1)
		writeError(w, errOverloaded)
		return
	}
	<-done
	if out.err != nil {
		writeResultError(w, out.err)
		return
	}
	writeJSON(w, http.StatusOK, out.resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleColor serves node→module retrieval. Singletons go through the
// coalescer; explicit batches run as one worker task.
func (s *Server) handleColor(w http.ResponseWriter, r *http.Request, rec *request) {
	var req ColorRequest
	if aerr := decodeColorRequest(w, r, s.cfg.MaxBodyBytes, &req); aerr != nil {
		writeError(w, aerr)
		return
	}
	// Candidates keep the requested Levels, so the nodes validate
	// against the requested tree whatever mapping serves them.
	spec, ok := s.resolveSpec(w, rec, req.Mapping)
	if !ok {
		return
	}
	switch {
	case req.Node != nil && req.Nodes == nil:
		if err := req.Node.validate(req.Mapping.Levels); err != nil {
			writeError(w, badRequest("%v", err))
			return
		}
		release, aerr := s.admit(r)
		if aerr != nil {
			writeError(w, aerr)
			return
		}
		defer release()
		out, ok := s.coal.enqueue(spec, req.Node.Node(), &rec.trace)
		if !ok {
			writeError(w, errDraining)
			return
		}
		res := <-out
		if res.err != nil {
			writeResultError(w, res.err)
			return
		}
		writeJSON(w, http.StatusOK, ColorResponse{Modules: res.modules, Colors: []int{res.color}})
	case req.Node == nil && len(req.Nodes) > 0:
		nodes := req.Nodes
		if len(nodes) > s.cfg.MaxColorNodes {
			writeError(w, badRequest("batch of %d nodes above limit %d", len(nodes), s.cfg.MaxColorNodes))
			return
		}
		for _, nr := range nodes {
			if err := nr.validate(req.Mapping.Levels); err != nil {
				writeError(w, badRequest("%v", err))
				return
			}
		}
		serve(s, w, r, &rec.trace, spec, func(m coloring.Mapping) (ColorResponse, error) {
			batch := make([]tree.Node, len(nodes))
			for i, nr := range nodes {
				batch[i] = nr.Node()
			}
			resp := ColorResponse{Modules: m.Modules(), Colors: make([]int, len(nodes))}
			s.coal.colorBatch(m, resp.Colors, batch)
			return resp, nil
		})
	default:
		writeError(w, badRequest("exactly one of node or nodes must be set"))
	}
}

// writeResultError maps worker-side errors onto HTTP statuses. Registry
// build failures caused by the spec itself (specRejected) are client
// errors even though Validate should have caught them up front — a
// validator/build drift must surface as a 400, not a 500.
func writeResultError(w http.ResponseWriter, err error) {
	if aerr, ok := err.(*apiError); ok {
		writeError(w, aerr)
		return
	}
	var sr *specRejected
	if errors.As(err, &sr) {
		writeError(w, badRequest("mapping: %v", sr.err))
		return
	}
	// Anything else is a server-side condition.
	writeError(w, &apiError{status: http.StatusInternalServerError, msg: err.Error()})
}

// maxFamilyLevels caps the tree height of family-mode template-cost
// queries, which enumerate every instance of the tree: one request must
// not monopolize a worker.
const maxFamilyLevels = 20

// handleTemplateCost serves conflict counts for elementary instances,
// composite C(D,c) instances, and whole-family worst cases.
func (s *Server) handleTemplateCost(w http.ResponseWriter, r *http.Request, rec *request) {
	var req TemplateCostRequest
	if aerr := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); aerr != nil {
		writeError(w, aerr)
		return
	}
	spec, ok := s.resolveSpec(w, rec, req.Mapping)
	if !ok {
		return
	}
	t := tree.New(req.Mapping.Levels)
	reqKey := rec.requested

	// Pre-validate per mode, before taking a queue slot.
	var compute func(m coloring.Mapping) (TemplateCostResponse, error)
	switch {
	case len(req.Parts) > 0:
		if req.Anchor != nil || req.Kind != "" {
			writeError(w, badRequest("parts excludes kind/anchor"))
			return
		}
		var comp template.Composite
		for _, pr := range req.Parts {
			inst, err := pr.instance()
			if err != nil {
				writeError(w, badRequest("%v", err))
				return
			}
			comp.Parts = append(comp.Parts, inst)
		}
		if err := comp.Validate(t); err != nil {
			writeError(w, badRequest("%v", err))
			return
		}
		compute = func(m coloring.Mapping) (TemplateCostResponse, error) {
			resp := TemplateCostResponse{
				Conflicts: coloring.CompositeConflicts(m, comp),
				Items:     comp.Size(),
			}
			if rec := s.dom.Recorder(); rec.Enabled() {
				comp.Walk(func(n tree.Node) bool { rec.Access(m.Color(n), 1); return true })
				rec.Batch(int64(resp.Conflicts))
			}
			s.observe(reqKey, spec, dm.BoundQuery{Kind: "C", Total: comp.Size(), Parts: len(comp.Parts)}, resp.Conflicts)
			for _, p := range comp.Parts {
				s.sample(req.Mapping, p)
			}
			return resp, nil
		}
	case req.Anchor != nil:
		inst, err := InstanceRef{Kind: req.Kind, Anchor: *req.Anchor, Size: req.Size}.instance()
		if err != nil {
			writeError(w, badRequest("%v", err))
			return
		}
		if err := inst.Validate(t); err != nil {
			writeError(w, badRequest("%v", err))
			return
		}
		compute = func(m coloring.Mapping) (TemplateCostResponse, error) {
			resp := TemplateCostResponse{
				Conflicts: coloring.InstanceConflicts(m, inst),
				Items:     inst.Size,
			}
			if rec := s.dom.Recorder(); rec.Enabled() {
				inst.Walk(func(n tree.Node) bool { rec.Access(m.Color(n), 1); return true })
				rec.Batch(int64(resp.Conflicts))
			}
			s.observe(reqKey, spec, dm.BoundQuery{Kind: req.Kind, Size: inst.Size}, resp.Conflicts)
			s.sample(req.Mapping, inst)
			return resp, nil
		}
	default:
		if req.Mapping.Levels > maxFamilyLevels {
			writeError(w, badRequest("family cost on %d levels above cap %d (query a single anchor instead)",
				req.Mapping.Levels, maxFamilyLevels))
			return
		}
		ref := InstanceRef{Kind: req.Kind, Size: req.Size}
		if _, err := ref.instance(); err != nil {
			writeError(w, badRequest("%v", err))
			return
		}
		kind := map[string]template.Kind{"S": template.Subtree, "L": template.Level, "P": template.Path}[req.Kind]
		fam, err := template.NewFamily(t, kind, req.Size)
		if err != nil {
			writeError(w, badRequest("%v", err))
			return
		}
		compute = func(m coloring.Mapping) (TemplateCostResponse, error) {
			cost, witness := coloring.FamilyCost(m, fam)
			// Family mode observes the worst case; per-module accounting is
			// skipped — the enumeration touches every node of the tree and
			// would drown the served access distribution.
			s.observe(reqKey, spec, dm.BoundQuery{Kind: req.Kind, Size: req.Size}, cost)
			s.sample(req.Mapping, witness)
			return TemplateCostResponse{
				Conflicts: cost,
				Items:     req.Size,
				Witness: &InstanceRef{
					Kind:   witness.Kind.String(),
					Anchor: NodeRef{Index: witness.Anchor.Index, Level: witness.Anchor.Level},
					Size:   witness.Size,
				},
			}, nil
		}
	}
	serve(s, w, r, &rec.trace, spec, compute)
}

// handleSimulate replays a bounded trace through pms.SubmitDrain.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request, rec *request) {
	var req SimulateRequest
	if aerr := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); aerr != nil {
		writeError(w, aerr)
		return
	}
	spec, ok := s.resolveSpec(w, rec, req.Mapping)
	if !ok {
		return
	}
	if len(req.Batches) == 0 {
		writeError(w, badRequest("no batches"))
		return
	}
	if len(req.Batches) > s.cfg.MaxSimBatches {
		writeError(w, badRequest("%d batches above limit %d", len(req.Batches), s.cfg.MaxSimBatches))
		return
	}
	t := tree.New(req.Mapping.Levels)
	items := 0
	for _, batch := range req.Batches {
		items += len(batch)
		if items > s.cfg.MaxSimItems {
			writeError(w, badRequest("trace above %d items", s.cfg.MaxSimItems))
			return
		}
		for _, h := range batch {
			if h < 0 || h >= t.Nodes() {
				writeError(w, badRequest("heap index %d outside %d-level tree", h, t.Levels()))
				return
			}
		}
	}
	serve(s, w, r, &rec.trace, spec, func(m coloring.Mapping) (SimulateResponse, error) {
		sys := pms.NewSystem(m)
		sys.SetAccounting(s.dom.Recorder())
		batch := make([]tree.Node, 0, 64)
		for _, idxs := range req.Batches {
			batch = batch[:0]
			for _, h := range idxs {
				batch = append(batch, tree.FromHeapIndex(h))
			}
			sys.SubmitDrain(batch)
		}
		st := sys.Stats()
		s.met.recordSim(st)
		return SimulateResponse{
			Batches:     st.Batches,
			Requests:    st.Requests,
			Cycles:      st.Cycles,
			Conflicts:   st.Conflicts,
			MaxQueue:    st.MaxQueue,
			Utilization: st.Utilization(m.Modules()),
			IdleSteps:   st.IdleSteps,
		}, nil
	})
}

// String summarizes the live config for startup logging.
func (c Config) String() string {
	return fmt.Sprintf("workers=%d maxInflight=%d maxBatch=%d cacheBudget=%dMiB",
		c.Workers, c.MaxInflight, c.MaxBatch, c.CacheBudgetBytes>>20)
}
