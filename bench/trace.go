package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"time"

	"repro/internal/coloring"
	"repro/internal/mapstore"
	dm "repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/tree"
)

// span is one timed call. Spans of one request share Req; for client
// spans Req is the X-Request-Id pmsd echoes, so pmsd's /debug/requests
// traces join to them.
type span struct {
	ID, Parent int64
	Name, Req  string
	Start, End time.Time
}

// recorder keeps one run's spans in memory; they are written out when the
// benchmark ends.
type recorder struct {
	workload string
	mu       sync.Mutex
	spans    []span
}

func (r *recorder) add(s span) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = int64(len(r.spans)) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

func (r *recorder) end(id int64, t time.Time) {
	r.mu.Lock()
	r.spans[id-1].End = t
	r.mu.Unlock()
}

// child times fn as a span under parent.
func (r *recorder) child(parent int64, name string, fn func()) {
	t0 := time.Now()
	fn()
	r.add(span{Parent: parent, Name: name, Start: t0, End: time.Now()})
}

// selfTimes sums each span name's self time: its duration minus the
// part covered by its children (children here never overlap).
func (r *recorder) selfTimes() (self map[string]time.Duration, count map[string]int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	childSum := make(map[int64]time.Duration)
	for _, s := range r.spans {
		if s.Parent != 0 {
			childSum[s.Parent] += s.End.Sub(s.Start)
		}
	}
	self, count = make(map[string]time.Duration), make(map[string]int)
	for _, s := range r.spans {
		self[s.Name] += s.End.Sub(s.Start) - childSum[s.ID]
		count[s.Name]++
	}
	return self, count
}

// p50US is the median duration of the spans with the given name, in µs.
func (r *recorder) p50US(name string) float64 {
	r.mu.Lock()
	var d []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			d = append(d, s.End.Sub(s.Start))
		}
	}
	r.mu.Unlock()
	report.SortDurations(d)
	return percentileUS(d, 50)
}

// writeSpans writes every recorder's spans as JSON lines, times in ns
// since the earliest span.
func writeSpans(path string, recs []*recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var epoch time.Time
	for _, r := range recs {
		for _, s := range r.spans {
			if epoch.IsZero() || s.Start.Before(epoch) {
				epoch = s.Start
			}
		}
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range recs {
		for _, s := range r.spans {
			if err := enc.Encode(struct {
				Workload string `json:"workload"`
				ID       int64  `json:"id"`
				Parent   int64  `json:"parent,omitempty"`
				Name     string `json:"name"`
				Req      string `json:"req,omitempty"`
				StartNS  int64  `json:"start_ns"`
				EndNS    int64  `json:"end_ns"`
			}{r.workload, s.ID, s.Parent, s.Name, s.Req, s.Start.Sub(epoch).Nanoseconds(), s.End.Sub(epoch).Nanoseconds()}); err != nil {
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// replayStats sums an in-process replay.
type replayStats struct {
	requests        int
	reqBytes        int64
	respBytes       int64
	nodes           int64 // nodes colored inside kernel spans
	boundViolations int64
}

// Layer span names of the replay, in serving order.
const (
	spanDecode   = "codec.decode"
	spanAcquire  = "registry.acquire"
	spanKernel   = "kernel"
	spanTemplate = "template.cost"
	spanDomain   = "domain"
	spanRange    = "sim.range"
	spanHeap     = "sim.heap"
	spanEncode   = "codec.encode"
	spanHandler  = "handler"
)

// replay runs the stream's leading requests in-process through the
// public entry points pmsd composes — JSON decode on the server wire
// types, registry acquire, the coloring kernels and template costs,
// domain accounting and the bound monitor, the simulators, JSON encode
// — one child span per call, plus the whole handler without TCP. It
// stops after limit or when the stream is exhausted.
func replay(w workloadDef, reqs []request, rec *recorder, tmp string, limit time.Duration) (replayStats, error) {
	var st replayStats
	budget := int64(256 << 20)
	if w.cacheMB > 0 {
		budget = w.cacheMB << 20
	}
	reg := server.NewRegistry(budget, &server.Metrics{})
	cfg := server.Config{CacheBudgetBytes: budget, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
	if w.store {
		regStore, err := mapstore.Open(mapstore.Options{Dir: filepath.Join(tmp, "replay-registry")})
		if err != nil {
			return st, err
		}
		defer regStore.Close()
		reg.AttachStore(regStore)
		if cfg.Store, err = mapstore.Open(mapstore.Options{Dir: filepath.Join(tmp, "replay-handler")}); err != nil {
			return st, err
		}
	}
	srv := server.New(cfg) // Shutdown closes cfg.Store
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	h := srv.Handler()
	dom := dm.NewDomain(0)

	// Set-up stays out of the spans, as it stays out of the live window.
	for _, spec := range w.prime {
		r, err := colorRequest(spec, []tree.Node{{}})
		if err != nil {
			return st, err
		}
		if _, err := reg.Acquire(spec); err != nil {
			return st, err
		}
		if code := serve(h, &r); code != http.StatusOK {
			return st, fmt.Errorf("replay priming %s: status %d", spec.Key(), code)
		}
	}

	deadline := time.Now().Add(limit)
	for i := range reqs {
		if time.Now().After(deadline) {
			break
		}
		r := reqs[i]
		root := rec.add(span{Name: "request", Req: "replay-" + strconv.Itoa(i), Start: time.Now()})
		typed := reflect.New(reflect.TypeOf(r.wire).Elem()).Interface()
		var err error
		rec.child(root, spanDecode, func() { err = json.Unmarshal(r.body, typed) })
		if err != nil {
			return st, err
		}
		r.wire = typed
		var m coloring.Mapping
		rec.child(root, spanAcquire, func() { m, _, err = reg.AcquireInfo(r.spec) })
		if err != nil {
			return st, err
		}
		a, err := compute(&r, m, dom.Recorder(), func(name string, fn func()) { rec.child(root, name, fn) })
		if err != nil {
			return st, err
		}
		if _, ok := r.wire.(*server.ColorRequest); ok {
			st.nodes += int64(len(a.resp.(*server.ColorResponse).Colors))
		} else {
			rec.child(root, spanDomain, func() { account(&r, m, a, dom) })
		}
		var out []byte
		rec.child(root, spanEncode, func() { out, err = json.Marshal(a.resp) })
		if err != nil {
			return st, err
		}
		var code int
		rec.child(root, spanHandler, func() { code = serve(h, &r) })
		if code != http.StatusOK {
			return st, fmt.Errorf("replayed request %d: handler status %d", i, code)
		}
		rec.end(root, time.Now())
		st.requests++
		st.reqBytes += int64(len(r.body))
		st.respBytes += int64(len(out))
	}
	_, _, st.boundViolations = dom.Counters()
	return st, nil
}

// serve runs one request through the whole pmsd handler without TCP.
func serve(h http.Handler, r *request) int {
	rr := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
	req.Header.Set("Content-Type", "application/json")
	if r.tenant != "" {
		req.Header.Set(server.TenantHeader, r.tenant)
	}
	h.ServeHTTP(rr, req)
	return rr.Code
}

// account performs the domain accounting pmsd does for one answered
// request: per-module access counts, family and per-spec conflict
// observations, and the theorem-bound check.
func account(r *request, m coloring.Mapping, a answer, dom *dm.Domain) {
	spec, key := r.spec, r.spec.Key()
	q := dm.BoundQuery{Alg: spec.Alg, M: spec.M, Levels: spec.Levels}
	observe := func(family string, conflicts int, q dm.BoundQuery) {
		dom.ObserveFamily(family, conflicts)
		dom.ObserveSpec(key, family, conflicts)
		q.Kind = family
		dom.CheckBound(q, conflicts)
	}
	switch req := r.wire.(type) {
	case *server.TemplateCostRequest:
		rec := dom.Recorder()
		var walk func(func(tree.Node) bool)
		family := req.Kind
		if req.Anchor != nil {
			inst, _ := instanceOf(server.InstanceRef{Kind: req.Kind, Anchor: *req.Anchor, Size: req.Size})
			walk, q.Size = inst.Walk, inst.Size
		} else {
			comp, _ := compositeOf(req)
			walk, family, q.Total, q.Parts = comp.Walk, "C", comp.Size(), len(comp.Parts)
		}
		walk(func(n tree.Node) bool { rec.Access(m.Color(n), 1); return true })
		rec.Batch(a.conflicts)
		observe(family, int(a.conflicts), q)
	case *server.RangeRequest:
		for _, res := range a.resp.(*server.RangeResponse).Results {
			q.Total, q.Parts = res.Items, res.Parts
			observe("C", res.Conflicts, q)
		}
	case *server.HeapWorkloadRequest:
		for _, p := range a.paths {
			q.Size = p[0]
			observe("P", int(p[1]-1), q)
		}
	}
}
