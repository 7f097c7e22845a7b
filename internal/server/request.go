// The per-request record: each /v1 request builds one, taken from a
// pool, and every layer that observes the request fills it in place.
// The capture middleware (flightrec.go) owns it; instrument stamps the
// identity and runs the trace; resolveSpec stamps the requested and
// effective mapping; pool workers record stage spans. Its trace part
// (obsv.Record) feeds the stage histograms and /debug/requests, and the
// capture middleware reads the whole record once, when the handler
// chain returns, to build the request's flight event.
package server

import (
	"bufio"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/obsv"
)

// request is one /v1 request's record.
//
// Lifetime: the capture middleware takes it from requestPool, passes it
// down the handler chain as the one value a /v1 request adds to its
// context, and puts it back after the chain returns and the flight
// event is built. Under a bare Handler (no capture layer) instrument
// takes and returns it. No goroutine may touch it after that return.
//
// It holds no lock. Every field is written on the request's goroutine,
// except the trace spans a pool worker records while the handler waits
// for it:
//
//   - runBatch (batch.go) records a coalesced lookup's coalesce_wait,
//     admission_wait, registry_acquire_* and batch_compute spans, then
//     sends the lookup's result on job.out. handleColor's receive from
//     out completes after that send, so the spans are ordered before
//     everything the handler and the layers above it do next.
//   - The task serve (server.go) queues records admission_wait,
//     registry_acquire_* and batch_compute and writes the response and
//     the error, then closes done. serve reads them, and returns, only
//     once its receive from done sees the close.
//
// A worker touches a record only before that send or close. serve
// returns without waiting only when its task was never queued, and
// enqueue fails only before its job joins a group, so no worker holds a
// record whose handler has returned.
type request struct {
	trace     obsv.Record
	requested string       // the client's mapping key; trace.Mapping is the served one
	outer     statusWriter // the status the client saw (capture layer, outside the chaos injector)
	inner     statusWriter // the status the handler wrote, and its response_write timing (instrument)
}

// requestKey is the context key of a request's record.
type requestKey struct{}

var requestPool = sync.Pool{New: func() any { return new(request) }}

// putRequest clears rec, so the pool retains no response writer or
// request strings, and returns it to the pool.
func putRequest(rec *request) {
	*rec = request{}
	requestPool.Put(rec)
}

// statusWriter records the status written through it and forwards
// Flush, so the chaos injector's drip mode still streams through it. A
// timed writer (the inner one, on a traced request) also measures the
// time spent inside the underlying writer for the response_write span.
type statusWriter struct {
	http.ResponseWriter
	status     int
	timed      bool
	writeStart time.Time     // first WriteHeader/Write call
	writeDur   time.Duration // cumulative time inside the underlying writer
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	if !w.timed {
		w.ResponseWriter.WriteHeader(code)
		return
	}
	t0 := time.Now()
	if w.writeStart.IsZero() {
		w.writeStart = t0
	}
	w.ResponseWriter.WriteHeader(code)
	w.writeDur += time.Since(t0)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if !w.timed {
		return w.ResponseWriter.Write(p)
	}
	t0 := time.Now()
	if w.writeStart.IsZero() {
		w.writeStart = t0
	}
	n, err := w.ResponseWriter.Write(p)
	w.writeDur += time.Since(t0)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// hijackWriter is the outer writer when the underlying writer supports
// hijacking, so the chaos injector's connection-reset and partial-body
// modes still reach the TCP connection. A hijacked request has no HTTP
// status on the wire; the event records 0.
type hijackWriter struct{ *statusWriter }

func (w hijackWriter) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	w.status = 0
	return w.ResponseWriter.(http.Hijacker).Hijack()
}
