// Capture wiring: the one place a /v1 request is recorded, feeding the
// flight recorder (internal/flightrec) and, under pmsd -record, the
// run's replay.Tape.
//
// The capture middleware sits OUTERMOST — outside even the
// fault-injection middleware — because chaos answers (500 bursts, 429s,
// connection resets) never reach instrument()'s writer; the black box
// must see the response the client saw, not the one the handlers
// intended, and a replayable trace must include the requests chaos
// answered for itself. It owns the request's pooled record (request.go)
// and always wraps the listener. When a sink exists it reads each POST
// body once and hands the inner layers an in-memory copy. Identity that
// only the inner layers know (endpoint name, request ID,
// requested/effective mapping, per-stage timings) is filled into the
// record by instrument(), resolveSpec() and the pool workers, and the
// middleware reads it into the Capture after the handler chain returns.
package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"repro/internal/flightrec"
	"repro/internal/obsv"
	"repro/internal/replay"
)

var pathCleaner = strings.NewReplacer("/", "_", "-", "_")

// endpointForPath maps a /v1 route to its endpoint name. The fallback
// covers requests the chaos layer answered before routing.
func endpointForPath(path string) string {
	for _, ep := range endpoints {
		if ep.path == path {
			return ep.name
		}
	}
	return pathCleaner.Replace(strings.TrimPrefix(path, "/v1/"))
}

// captureMiddleware is the outermost layer. It owns each /v1 request's
// record and, when a sink (flight recorder or tape) exists, records one
// Capture per served /v1 request, whatever layer answered it.
func (s *Server) captureMiddleware(next http.Handler) http.Handler {
	sink := s.fr != nil || s.cfg.Tape != nil
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			next.ServeHTTP(w, r)
			return
		}
		rec := requestPool.Get().(*request)
		rec.outer = statusWriter{ResponseWriter: w, status: http.StatusOK}
		var outer http.ResponseWriter = &rec.outer
		if _, ok := w.(http.Hijacker); ok {
			outer = hijackWriter{&rec.outer}
		}
		r = r.WithContext(context.WithValue(r.Context(), requestKey{}, rec))
		if sink {
			s.serveCaptured(next, outer, r, rec)
		} else {
			next.ServeHTTP(outer, r)
		}
		putRequest(rec)
	})
}

// serveCaptured serves r through next and records its Capture: the body
// as received, then the record's identity, status and stage times once
// the handler chain returns.
func (s *Server) serveCaptured(next http.Handler, w http.ResponseWriter, r *http.Request, rec *request) {
	start := time.Now()
	c := flightrec.Capture{Seq: s.arrivals.Add(1)}
	if r.Method == http.MethodPost && r.Body != nil {
		if body, ok := captureBody(r, s.cfg.MaxBodyBytes); ok {
			c.Req = replay.Record{Path: r.URL.Path, Tenant: r.Header.Get(TenantHeader), Body: body}
			s.cfg.Tape.Append(c.Req)
		} else {
			s.cfg.Tape.Drop()
		}
	}
	next.ServeHTTP(w, r)

	tr := &rec.trace
	c.Event = flightrec.Event{
		TS:        s.cfg.flightNow().UnixMicro(),
		RequestID: tr.ID,
		Tenant:    tr.Tenant,
		Endpoint:  tr.Endpoint,
		Requested: rec.requested,
		Effective: tr.Mapping,
		Status:    rec.outer.status,
		TotalUS:   time.Since(start).Microseconds(),
		StagesUS:  tr.StagesUS(),
	}
	ev := &c.Event
	if ev.Endpoint == "" {
		// The handler chain never ran (chaos short-circuit, 404):
		// attribute by path and headers.
		ev.Endpoint = endpointForPath(r.URL.Path)
		ev.RequestID = r.Header.Get(obsv.HeaderRequestID)
		ev.Tenant = sanitizeTenant(r.Header.Get(TenantHeader))
	}
	ev.Conflicts, ev.BoundChecks, ev.BoundViolations = s.dom.Counters()
	s.fr.Record(c)
	if s.logger.Enabled(r.Context(), slog.LevelDebug) {
		s.logger.Debug("request",
			"request_id", ev.RequestID, "tenant", ev.Tenant, "endpoint", ev.Endpoint,
			"mapping", ev.Effective, "status", ev.Status, "total_us", ev.TotalUS)
	}
}

// capturedBody replays a captured body to the handler: one allocation
// in place of the NopCloser+Reader pair, on the hot path per request.
type capturedBody struct{ bytes.Reader }

func (*capturedBody) Close() error { return nil }

// captureBody reads r's body once and swaps in an in-memory copy for the
// handler. When the declared Content-Length is trusted (non-chunked,
// within limit) the body is read into an exactly sized buffer that the
// capture then owns; chunked or oversized bodies fall back to a bounded
// drain, so no capture retains more than limit bytes. ok is false when
// the body is over limit or could not be read in full: the handler then
// gets what was read and reports the error itself.
func captureBody(r *http.Request, limit int64) (body []byte, ok bool) {
	var err error
	if n := r.ContentLength; n >= 0 && n <= limit {
		body = make([]byte, n)
		var read int
		read, err = io.ReadFull(r.Body, body)
		body = body[:read]
	} else {
		body, err = io.ReadAll(io.LimitReader(r.Body, limit+1))
	}
	cb := &capturedBody{}
	cb.Reset(body)
	r.Body = cb
	return body, err == nil && int64(len(body)) <= limit
}

// metricFrame assembles the cumulative counter surface the flight
// recorder frames and the watchdog's delta rules read.
func (s *Server) metricFrame() flightrec.MetricFrame {
	m := s.met
	f := flightrec.MetricFrame{
		Rejected429:          m.rejected429.Load(),
		ControllerDecisions:  m.controllerDecisions.Load(),
		ControllerMigrations: m.controllerMigrations.Load(),
		Endpoints:            make(map[string]flightrec.EndpointFrame, numEndpoints),
	}
	for i, ep := range endpoints {
		em := &m.endpoints[i]
		ef := flightrec.EndpointFrame{
			Requests:  em.requests.Load(),
			Errors5xx: em.errors5xx.Load(),
			Errors4xx: em.errors4xx.Load(),
		}
		f.Requests += ef.Requests
		f.Errors5xx += ef.Errors5xx
		if ef.Requests != 0 {
			f.Endpoints[ep.name] = ef
		}
	}
	f.Conflicts, f.BoundChecks, f.BoundViolations = s.dom.Counters()
	f.Accesses, _ = s.dom.AccessTotals()
	if ts := m.tenants.snapshot(); len(ts) > 0 {
		f.Tenants = make(map[string]flightrec.TenantFrame, len(ts))
		for _, t := range ts {
			f.Tenants[t.Tenant] = flightrec.TenantFrame{Requests: t.Requests, Rejected: t.Rejected}
		}
	}
	stages := make(map[string]flightrec.StageFrame)
	s.trc.ForEachStage(func(st obsv.Stage, h *obsv.Histogram) {
		count, sum, buckets := h.Load()
		if count == 0 {
			return
		}
		stages[st.String()] = flightrec.StageFrame{Count: count, SumUS: sum, Buckets: buckets}
	})
	if len(stages) > 0 {
		f.Stages = stages
	}
	return f
}

// handleFlightSnapshot serves GET /debug/snapshot: a manual freeze of
// the flight recorder, streamed as a PMSINC1 incident document (the
// same bytes the watchdog writes on a breach). No server state changes;
// the rings keep recording.
func (s *Server) handleFlightSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.fr == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "flight recorder disabled"})
		return
	}
	inc := s.fr.Freeze(s.cfg.flightNow(), "manual", nil)
	data, err := flightrec.EncodeIncident(inc)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=incident-%016d.pmsinc", inc.Meta.CreatedUS))
	w.Header().Set("Content-Length", fmt.Sprint(len(data)))
	_, _ = w.Write(data)
}

// FlightTick runs one watchdog pass at the given instant and returns
// the rules that newly breached. Deterministic-clock tests and the
// incident replayer drive the watchdog through this instead of the
// background loop (Config.flightManual suppresses the loop).
func (s *Server) FlightTick(now time.Time) []flightrec.Breach {
	if s.fr == nil {
		return nil
	}
	return s.fr.Tick(now)
}
