// Package client is the production Go client for the pmsd serving
// layer. It wraps the HTTP/JSON API with the resilience machinery a
// caller needs against a degraded server (see internal/faultinject for
// the fault model it is tested against):
//
//   - context deadlines on every attempt;
//   - capped exponential backoff with full jitter between retries,
//     honoring the server's Retry-After on 429/503;
//   - retry on transport errors, 5xx, 429, and truncated/corrupt
//     response bodies (partial batch failures surface as JSON decode
//     errors, not statuses);
//   - hedged reads for singleton /v1/color lookups: if the first
//     attempt is slower than the hedge delay, a second racing request
//     is launched and the first usable answer wins, cutting tail
//     latency under latency-spike faults;
//   - a half-open circuit breaker that fails fast (ErrCircuitOpen)
//     while the backend is persistently unhealthy, with bounded probe
//     traffic during recovery — checked before a backoff sleep, so an
//     open breaker never pays the retry delay;
//   - per-call request IDs: every attempt carries X-Request-Id plus the
//     attempt number, elapsed call time and hedge flag, so the server's
//     /debug/requests traces join client retry/hedge schedules with
//     server-side stage spans under one ID.
//
// Non-retryable client errors (4xx other than 429) are returned as
// *APIError without burning retry budget or breaker health.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
	"repro/internal/server"
)

// Config tunes the client. Zero values take the documented defaults.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient overrides the transport (default: dedicated client
	// with sane pooling).
	HTTPClient *http.Client
	// MaxAttempts bounds the attempts of one logical call, first try
	// included (default 4).
	MaxAttempts int
	// BaseBackoff/MaxBackoff shape the capped exponential backoff with
	// full jitter: attempt i sleeps uniform[0, min(MaxBackoff,
	// BaseBackoff·2^i)) (defaults 10ms, 1s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// AttemptTimeout bounds each individual attempt (default 5s); the
	// caller's ctx bounds the whole call.
	AttemptTimeout time.Duration
	// HedgeDelay arms hedged reads for singleton Color lookups: when
	// the primary attempt has not answered within this delay, a second
	// racing call is launched (0 disables hedging).
	HedgeDelay time.Duration
	// Breaker tunes the circuit breaker.
	Breaker BreakerConfig
	// Seed seeds the backoff jitter, making retry schedules replayable
	// (0 uses seed 1).
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 10 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = time.Second
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 5 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// APIError is a non-retryable client-side error: the server answered
// with a 4xx (other than 429) and a diagnostic message.
type APIError struct {
	Status int
	Msg    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: server rejected request: %d %s", e.Status, e.Msg)
}

// Stats is a point-in-time snapshot of the client's counters.
type Stats struct {
	Attempts       int64  // HTTP attempts issued
	Retries        int64  // attempts beyond the first of a call
	Hedges         int64  // hedge requests launched
	HedgeWins      int64  // hedges that delivered the winning answer
	BreakerOpens   int64  // closed/half-open → open transitions
	BreakerRejects int64  // calls failed fast with ErrCircuitOpen
	BreakerState   string // current breaker state
}

// Client is a concurrency-safe pmsd client.
type Client struct {
	cfg  Config
	http *http.Client
	br   *breaker

	rngMu sync.Mutex
	rng   *rand.Rand

	attempts, retries, hedges, hedgeWins atomic.Int64
	breakerOpens, breakerRejects         atomic.Int64

	// wait, when set, stands in for the backoff timer (nil means the
	// real timer); tests use it to take retries off the wall clock.
	wait func(ctx context.Context, d time.Duration) error
}

// New builds a client for the given base URL and options.
func New(cfg Config) (*Client, error) {
	cfg = cfg.withDefaults()
	if cfg.BaseURL == "" {
		return nil, errors.New("client: missing BaseURL")
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 64,
		}}
	}
	return &Client{
		cfg:  cfg,
		http: hc,
		br:   newBreaker(cfg.Breaker, nil),
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}, nil
}

// Stats snapshots the client counters.
func (c *Client) Stats() Stats {
	return Stats{
		Attempts:       c.attempts.Load(),
		Retries:        c.retries.Load(),
		Hedges:         c.hedges.Load(),
		HedgeWins:      c.hedgeWins.Load(),
		BreakerOpens:   c.breakerOpens.Load(),
		BreakerRejects: c.breakerRejects.Load(),
		BreakerState:   c.br.currentState().String(),
	}
}

// CloseIdleConnections releases pooled transport connections.
func (c *Client) CloseIdleConnections() {
	c.http.CloseIdleConnections()
}

// Color resolves the module of a single node. This is the hedged-read
// path: with HedgeDelay set, a slow primary call races a second one and
// the first usable answer wins (the loser is canceled).
func (c *Client) Color(ctx context.Context, spec server.MappingSpec, node server.NodeRef) (int, error) {
	call := func(ctx context.Context) (server.ColorResponse, error) {
		var resp server.ColorResponse
		err := c.do(ctx, "/v1/color", server.ColorRequest{Mapping: spec, Node: &node}, &resp)
		return resp, err
	}
	resp, err := c.hedged(ctx, call)
	if err != nil {
		return 0, err
	}
	if len(resp.Colors) != 1 {
		return 0, fmt.Errorf("client: singleton color reply carries %d colors", len(resp.Colors))
	}
	return resp.Colors[0], nil
}

// ColorBatch resolves the modules of a batch of nodes in one request.
func (c *Client) ColorBatch(ctx context.Context, spec server.MappingSpec, nodes []server.NodeRef) (server.ColorResponse, error) {
	var resp server.ColorResponse
	err := c.do(ctx, "/v1/color", server.ColorRequest{Mapping: spec, Nodes: nodes}, &resp)
	if err == nil && len(resp.Colors) != len(nodes) {
		return resp, fmt.Errorf("client: batch reply carries %d colors for %d nodes", len(resp.Colors), len(nodes))
	}
	return resp, err
}

// TemplateCost evaluates template conflicts under a mapping.
func (c *Client) TemplateCost(ctx context.Context, req server.TemplateCostRequest) (server.TemplateCostResponse, error) {
	var resp server.TemplateCostResponse
	err := c.do(ctx, "/v1/template-cost", req, &resp)
	return resp, err
}

// Simulate replays a trace through the parallel memory system simulator.
func (c *Client) Simulate(ctx context.Context, req server.SimulateRequest) (server.SimulateResponse, error) {
	var resp server.SimulateResponse
	err := c.do(ctx, "/v1/simulate", req, &resp)
	return resp, err
}

// Health checks /healthz with a single un-retried attempt.
func (c *Client) Health(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.cfg.BaseURL+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("client: health status %d", resp.StatusCode)
	}
	return nil
}

// outcome carries one racing call's answer to the hedging loop.
type outcome struct {
	resp  server.ColorResponse
	err   error
	hedge bool
}

// callIDKey carries the logical call's request ID through the hedging
// path, so the primary and hedge attempts share one X-Request-Id and
// join under one trace server-side. hedgeKey marks the hedge racer.
type (
	callIDKey struct{}
	hedgeKey  struct{}
)

// hedged runs call, racing a second invocation launched after
// HedgeDelay if the first has not finished. The first nil-error answer
// wins and the loser's context is canceled; sends go to a buffered
// channel so the losing goroutine always exits promptly (the hedge
// leak-check test pins this down).
func (c *Client) hedged(ctx context.Context, call func(context.Context) (server.ColorResponse, error)) (server.ColorResponse, error) {
	if c.cfg.HedgeDelay <= 0 {
		return call(ctx)
	}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	rctx = context.WithValue(rctx, callIDKey{}, obsv.NewRequestID())
	results := make(chan outcome, 2)
	launch := func(hedge bool) {
		cctx := rctx
		if hedge {
			cctx = context.WithValue(cctx, hedgeKey{}, true)
		}
		go func() {
			resp, err := call(cctx)
			results <- outcome{resp: resp, err: err, hedge: hedge}
		}()
	}
	launch(false)
	outstanding := 1
	timer := time.NewTimer(c.cfg.HedgeDelay)
	defer timer.Stop()
	hedgeArmed := true
	var lastErr error
	for {
		select {
		case out := <-results:
			outstanding--
			if out.err == nil {
				if out.hedge {
					c.hedgeWins.Add(1)
				}
				return out.resp, nil
			}
			lastErr = out.err
			if outstanding == 0 {
				// Primary failed before the hedge fired (its retry budget is
				// exhausted — a hedge would fail the same way), or both racers
				// failed: report the last error.
				return server.ColorResponse{}, lastErr
			}
		case <-timer.C:
			if hedgeArmed {
				hedgeArmed = false
				c.hedges.Add(1)
				outstanding++
				launch(true)
			}
		}
	}
}

// do runs one logical POST call with retries, backoff, and the breaker.
func (c *Client) do(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	meta := attemptMeta{start: time.Now()}
	if id, ok := ctx.Value(callIDKey{}).(string); ok {
		meta.id = id // hedged call: both racers share the logical call's ID
	} else {
		meta.id = obsv.NewRequestID()
	}
	_, meta.hedge = ctx.Value(hedgeKey{}).(bool)
	var lastErr error
	var hint time.Duration // server Retry-After from the previous attempt
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			// An open breaker fails the retry before the backoff sleep, not
			// after it: sleeping a full capped-exponential delay only to be
			// rejected locally would stall the caller for nothing.
			if c.br.failFast() {
				c.breakerRejects.Add(1)
				return fmt.Errorf("client: %s: %w", path, ErrCircuitOpen)
			}
			c.retries.Add(1)
			if err := c.sleep(ctx, c.backoffDelay(attempt-1, hint)); err != nil {
				return fmt.Errorf("client: %s retry aborted: %w (last error: %v)", path, err, lastErr)
			}
		}
		if !c.br.allow() {
			c.breakerRejects.Add(1)
			return fmt.Errorf("client: %s: %w", path, ErrCircuitOpen)
		}
		c.attempts.Add(1)
		meta.attempt = attempt + 1
		res := c.attempt(ctx, path, body, out, meta)
		if res.err == nil {
			c.br.success()
			return nil
		}
		lastErr = res.err
		switch {
		case !res.retryable:
			// A clean 4xx means the backend is healthy: it does not count
			// against the breaker, and retrying cannot help.
			c.br.success()
			return res.err
		case res.breakerFault:
			if c.br.failure() {
				c.breakerOpens.Add(1)
			}
		}
		if ctx.Err() != nil {
			return lastErr
		}
		hint = res.retryAfter
	}
	return fmt.Errorf("client: %s failed after %d attempts: %w", path, c.cfg.MaxAttempts, lastErr)
}

// attemptResult classifies one HTTP attempt.
type attemptResult struct {
	err          error
	retryable    bool          // worth another attempt
	breakerFault bool          // counts against backend health
	retryAfter   time.Duration // server backoff hint (429/503)
}

// attemptMeta is the per-attempt tracing identity stamped onto request
// headers: the server joins its stage spans to these under one ID.
type attemptMeta struct {
	id      string    // logical-call request ID (shared by retries and hedges)
	attempt int       // 1-based attempt number
	start   time.Time // logical-call start (elapsed includes backoff sleeps)
	hedge   bool      // this racer is the hedge
}

// attempt issues one HTTP POST and classifies the outcome.
func (c *Client) attempt(ctx context.Context, path string, body []byte, out any, meta attemptMeta) attemptResult {
	actx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, c.cfg.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return attemptResult{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obsv.HeaderRequestID, meta.id)
	req.Header.Set(obsv.HeaderClientAttempt, strconv.Itoa(meta.attempt))
	req.Header.Set(obsv.HeaderClientElapsedUS, strconv.FormatInt(time.Since(meta.start).Microseconds(), 10))
	if meta.hedge {
		req.Header.Set(obsv.HeaderClientHedge, "1")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		// Connection resets, refused connections and attempt timeouts are
		// retryable backend faults; a dead parent context is final.
		if ctx.Err() != nil {
			return attemptResult{err: ctx.Err()}
		}
		return attemptResult{err: err, retryable: true, breakerFault: true}
	}
	defer resp.Body.Close()
	payload, readErr := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	switch {
	case resp.StatusCode == http.StatusOK:
		if readErr != nil {
			// Partial batch failure: the 200 arrived but the body was cut off.
			return attemptResult{err: fmt.Errorf("client: truncated response body: %w", readErr), retryable: true, breakerFault: true}
		}
		if err := json.Unmarshal(payload, out); err != nil {
			return attemptResult{err: fmt.Errorf("client: corrupt response body: %w", err), retryable: true, breakerFault: true}
		}
		return attemptResult{}
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		// Overload shedding and drain: the backend is alive and telling us
		// to back off — retryable, breaker-neutral, honor Retry-After.
		return attemptResult{
			err:        fmt.Errorf("client: server busy: %d %s", resp.StatusCode, errorMsg(payload)),
			retryable:  true,
			retryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
	case resp.StatusCode >= 500:
		return attemptResult{err: fmt.Errorf("client: server error: %d %s", resp.StatusCode, errorMsg(payload)), retryable: true, breakerFault: true}
	default:
		return attemptResult{err: &APIError{Status: resp.StatusCode, Msg: errorMsg(payload)}}
	}
}

// errorMsg extracts the server's JSON error body, falling back to the
// raw payload.
func errorMsg(payload []byte) string {
	var er server.ErrorResponse
	if err := json.Unmarshal(payload, &er); err == nil && er.Error != "" {
		return er.Error
	}
	if len(payload) > 120 {
		payload = payload[:120]
	}
	return string(bytes.TrimSpace(payload))
}

// parseRetryAfter parses a Retry-After value in either RFC 9110 form —
// delay-seconds (the form pmsd emits) or HTTP-date — capped at 30s so a
// bogus header cannot stall a call.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	var d time.Duration
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		d = time.Duration(secs) * time.Second
	} else if when, err := http.ParseTime(v); err == nil {
		d = time.Until(when)
		if d < 0 {
			return 0
		}
	} else {
		return 0
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// backoffDelay computes the sleep before retry n (0-based): full jitter
// over a capped exponential, floored by the server's Retry-After hint.
func (c *Client) backoffDelay(n int, hint time.Duration) time.Duration {
	ceil := c.cfg.MaxBackoff
	if shifted := c.cfg.BaseBackoff << uint(n); shifted > 0 && shifted < ceil {
		ceil = shifted
	}
	c.rngMu.Lock()
	d := time.Duration(c.rng.Int63n(int64(ceil) + 1))
	c.rngMu.Unlock()
	if d < hint {
		d = hint
	}
	return d
}

// sleep waits for d or the context, whichever ends first.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if c.wait != nil {
		return c.wait(ctx, d)
	}
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
