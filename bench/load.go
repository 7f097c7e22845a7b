package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/tree"
)

// conns is the generator's connection count: one per core of the
// 2-core box the benchmark was sized on, and the concurrency of the
// heap/range callers pmsd serves, which each wait on every answer.
const conns = 2

// client is the load generator: one process, conns keep-alive
// connections, closed loop.
type client struct {
	http *http.Client
	base string
	reqs []request
	next atomic.Int64 // stream cursor shared by the connections
	// spans, when set, receives one client span per request, carrying
	// the X-Request-Id pmsd echoes into its own traces.
	spans *recorder
	ids   atomic.Int64
}

func newClient(base string, reqs []request) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{http: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base, reqs: reqs}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// exchange sends one request and reads the full response body. The
// returned duration runs from send until the body is fully read. keep
// asks for the body; otherwise it is discarded while being read.
func (c *client) exchange(ctx context.Context, r *request, keep bool) (status int, body []byte, d time.Duration, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if r.tenant != "" {
		req.Header.Set(server.TenantHeader, r.tenant)
	}
	var id string
	if c.spans != nil {
		id = "pb-" + strconv.FormatInt(c.ids.Add(1), 10)
		req.Header.Set(obsv.HeaderRequestID, id)
	}
	t0 := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	if keep {
		body, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	d = time.Since(t0)
	if c.spans != nil {
		c.spans.add(span{Name: "client", Req: id, Start: t0, End: t0.Add(d)})
	}
	return resp.StatusCode, body, d, err
}

// window is what one closed-loop measurement saw.
type window struct {
	attempted, ok, failed int64
	lats                  []time.Duration // OK responses completed inside the window
	done                  []time.Duration // when each of them completed, from the window's start
	// seconds runs from the window's start to its last counted
	// completion.
	seconds float64
}

func (w *window) merge(o window) {
	w.attempted += o.attempted
	w.ok += o.ok
	w.failed += o.failed
	w.lats = append(w.lats, o.lats...)
	w.done = append(w.done, o.done...)
	w.seconds += o.seconds
}

// drive runs the closed loop for d: each connection sends its next
// request only after reading the full previous response. Responses
// that complete after the deadline count as attempted but not as
// samples.
func (c *client) drive(ctx context.Context, d time.Duration) window {
	start := time.Now()
	deadline := start.Add(d)
	per := make([]window, conns)
	var wg sync.WaitGroup
	for k := range per {
		wg.Add(1)
		go func(w *window) {
			defer wg.Done()
			w.lats = make([]time.Duration, 0, 1<<14)
			for time.Now().Before(deadline) && ctx.Err() == nil {
				r := &c.reqs[int(c.next.Add(1)-1)%len(c.reqs)]
				status, _, lat, err := c.exchange(ctx, r, false)
				w.attempted++
				if err != nil || status != http.StatusOK {
					w.failed++
					continue
				}
				now := time.Now()
				if now.After(deadline) {
					continue
				}
				w.ok++
				w.lats = append(w.lats, lat)
				w.done = append(w.done, now.Sub(start))
				w.seconds = now.Sub(start).Seconds()
			}
		}(&per[k])
	}
	wg.Wait()
	var all window
	seconds := 0.0
	for _, w := range per {
		all.merge(w)
		seconds = max(seconds, w.seconds)
	}
	all.seconds = seconds
	return all
}

// bestSecond returns the highest completion rate and the lowest p50 over
// the window's first n whole seconds. Other load on a shared machine only
// ever slows a second down, so the least disturbed second estimates what
// the code itself does; runs of the same code on one box then differ far
// less than their whole-window averages. Call it before sorting lats.
func (w window) bestSecond(n int) (rps, p50 float64) {
	secs := make([][]time.Duration, n)
	first := make([]time.Duration, n)
	last := make([]time.Duration, n)
	for i, d := range w.done {
		s := int(d / time.Second)
		if s >= n {
			continue
		}
		if len(secs[s]) == 0 || d < first[s] {
			first[s] = d
		}
		last[s] = max(last[s], d)
		secs[s] = append(secs[s], w.lats[i])
	}
	p50 = math.Inf(1)
	for s, lats := range secs {
		if len(lats) < 2 || last[s] == first[s] {
			continue
		}
		rps = max(rps, float64(len(lats)-1)/(last[s]-first[s]).Seconds())
		report.SortDurations(lats)
		p50 = min(p50, percentileUS(lats, 50))
	}
	if math.IsInf(p50, 1) {
		p50 = 0
	}
	return rps, p50
}

// response is one answer collected by the verify pass.
type response struct {
	status int
	body   []byte
	err    error
}

// collect sends reqs over the connections, closed loop, and returns
// every response in stream order.
func (c *client) collect(ctx context.Context, reqs []request) []response {
	out := make([]response, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				status, body, _, err := c.exchange(ctx, &reqs[i], true)
				out[i] = response{status: status, body: body, err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

// prime sends one singleton lookup per spec, in order, and fails on the
// first non-200: set-up is done when every spec has answered once.
func (c *client) prime(ctx context.Context, specs []server.MappingSpec) error {
	for _, spec := range specs {
		r, err := colorRequest(spec, []tree.Node{{}})
		if err != nil {
			return err
		}
		status, body, _, err := c.exchange(ctx, &r, true)
		if err != nil {
			return fmt.Errorf("priming %s: %w", spec.Key(), err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("priming %s: status %d: %s", spec.Key(), status, bytes.TrimSpace(body))
		}
	}
	return nil
}
