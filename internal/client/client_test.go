package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/internal/testutil"
	"repro/internal/tree"
)

// fastConfig returns a client config with millisecond-scale backoff so
// retry-heavy tests stay quick.
func fastConfig(url string) Config {
	return Config{
		BaseURL:        url,
		MaxAttempts:    4,
		BaseBackoff:    time.Millisecond,
		MaxBackoff:     8 * time.Millisecond,
		AttemptTimeout: 2 * time.Second,
		Seed:           7,
	}
}

func newTestServerAndClient(t *testing.T, scfg server.Config, ccfg func(Config) Config) (*httptest.Server, *Client) {
	t.Helper()
	srv := server.New(scfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	cfg := fastConfig(ts.URL)
	if ccfg != nil {
		cfg = ccfg(cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.CloseIdleConnections)
	return ts, c
}

func TestNewRequiresBaseURL(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing BaseURL accepted")
	}
}

// The client against a healthy pmsd: every endpoint round-trips and the
// answers match the server-side mapping arithmetic.
func TestEndpointsAgainstRealServer(t *testing.T) {
	_, c := newTestServerAndClient(t, server.Config{}, nil)
	ctx := context.Background()
	spec := server.MappingSpec{Alg: "mod", Levels: 12, Modules: 7}

	n := tree.V(100, 8)
	color, err := c.Color(ctx, spec, server.NodeRef{Index: n.Index, Level: n.Level})
	if err != nil {
		t.Fatal(err)
	}
	if want := int(n.HeapIndex() % 7); color != want {
		t.Errorf("Color = %d, want %d", color, want)
	}

	refs := []server.NodeRef{{Index: 0, Level: 0}, {Index: 3, Level: 2}, {Index: 511, Level: 9}}
	batch, err := c.ColorBatch(ctx, spec, refs)
	if err != nil {
		t.Fatal(err)
	}
	for i, nr := range refs {
		if want := int(tree.V(nr.Index, nr.Level).HeapIndex() % 7); batch.Colors[i] != want {
			t.Errorf("batch[%d] = %d, want %d", i, batch.Colors[i], want)
		}
	}

	tc, err := c.TemplateCost(ctx, server.TemplateCostRequest{
		Mapping: spec, Kind: "S", Size: 7, Anchor: &server.NodeRef{Index: 0, Level: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tc.Items != 7 {
		t.Errorf("template cost items = %d, want 7", tc.Items)
	}

	sim, err := c.Simulate(ctx, server.SimulateRequest{Mapping: spec, Batches: [][]int64{{0, 1, 2}, {7, 7}}})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Requests != 5 {
		t.Errorf("simulate requests = %d, want 5", sim.Requests)
	}

	if err := c.Health(ctx); err != nil {
		t.Errorf("health: %v", err)
	}
	if st := c.Stats(); st.Retries != 0 || st.BreakerState != "closed" {
		t.Errorf("healthy run produced stats %+v", st)
	}
}

// flakyHandler fails the first `failures` requests with `status`, then
// delegates to the wrapped handler.
func flakyHandler(failures int64, status int, next http.Handler) http.Handler {
	var n atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) <= failures {
			if status == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", "0")
			}
			w.WriteHeader(status)
			fmt.Fprint(w, `{"error":"flaky"}`)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// realHandler returns a full pmsd handler whose worker pool is drained
// by the returned shutdown func — leak-checked tests must run it before
// their goroutine check fires.
func realHandler() (http.Handler, func()) {
	srv := server.New(server.Config{})
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}
	return srv.Handler(), shutdown
}

func TestRetriesRecoverFrom5xxAnd429(t *testing.T) {
	for _, status := range []int{http.StatusInternalServerError, http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		inner, stop := realHandler()
		ts := httptest.NewServer(flakyHandler(2, status, inner))
		c, err := New(fastConfig(ts.URL))
		if err != nil {
			t.Fatal(err)
		}
		spec := server.MappingSpec{Alg: "mod", Levels: 10, Modules: 3}
		color, err := c.Color(context.Background(), spec, server.NodeRef{Index: 2, Level: 2})
		if err != nil {
			t.Fatalf("status %d: %v", status, err)
		}
		if want := int(tree.V(2, 2).HeapIndex() % 3); color != want {
			t.Errorf("status %d: color %d, want %d", status, color, want)
		}
		if st := c.Stats(); st.Retries < 2 {
			t.Errorf("status %d: retries = %d, want ≥ 2", status, st.Retries)
		}
		c.CloseIdleConnections()
		ts.Close()
		stop()
	}
}

// A truncated 200 (the partial-batch fault) must be retried, not
// surfaced as a decode error.
func TestRetriesRecoverFromTruncatedBody(t *testing.T) {
	var n atomic.Int64
	inner, stop := realHandler()
	defer stop()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			w.Header().Set("Content-Length", "500")
			w.WriteHeader(http.StatusOK)
			fmt.Fprint(w, `{"modules":3,"colo`)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()
	c, err := New(fastConfig(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer c.CloseIdleConnections()
	spec := server.MappingSpec{Alg: "mod", Levels: 10, Modules: 3}
	if _, err := c.Color(context.Background(), spec, server.NodeRef{Index: 1, Level: 1}); err != nil {
		t.Fatalf("truncated body not recovered: %v", err)
	}
	if st := c.Stats(); st.Retries < 1 {
		t.Errorf("retries = %d, want ≥ 1", st.Retries)
	}
}

// 4xx responses are permanent: one attempt, *APIError, breaker healthy.
func TestBadRequestIsNotRetried(t *testing.T) {
	_, c := newTestServerAndClient(t, server.Config{}, nil)
	spec := server.MappingSpec{Alg: "nope", Levels: 10}
	_, err := c.Color(context.Background(), spec, server.NodeRef{})
	var aerr *APIError
	if !errors.As(err, &aerr) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if aerr.Status != http.StatusBadRequest || aerr.Msg == "" {
		t.Errorf("APIError = %+v", aerr)
	}
	if st := c.Stats(); st.Attempts != 1 || st.Retries != 0 {
		t.Errorf("stats %+v, want a single attempt", st)
	}
}

func TestContextCancellationAborts(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Stall until the client gives up. net/http notices a client
		// disconnect only once the handler has read the request body.
		_, _ = io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	defer ts.Close()
	c, err := New(fastConfig(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer c.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.Color(ctx, server.MappingSpec{Alg: "mod", Levels: 10, Modules: 3}, server.NodeRef{})
	if err == nil {
		t.Fatal("expected context error")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("cancellation took %v", d)
	}
}

// The breaker trips after sustained hard failures, fails fast while
// open, and recovers through a half-open probe once the backend heals.
// The whole cycle must not leak goroutines.
func TestCircuitBreakerTripAndRecover(t *testing.T) {
	defer testutil.CheckGoroutines(t)()

	var healthy atomic.Bool
	inner, stop := realHandler()
	defer stop()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprint(w, `{"error":"down"}`)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	cfg := fastConfig(ts.URL)
	cfg.MaxAttempts = 2
	cfg.Breaker = BreakerConfig{FailureThreshold: 3, Cooldown: 50 * time.Millisecond}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.CloseIdleConnections()
	spec := server.MappingSpec{Alg: "mod", Levels: 10, Modules: 3}
	ctx := context.Background()

	// Drive the breaker open: each call burns 2 attempts, so two calls
	// pass the 3-failure threshold.
	for i := 0; i < 3; i++ {
		if _, err := c.Color(ctx, spec, server.NodeRef{Index: 1, Level: 1}); err == nil {
			t.Fatal("call against dead backend succeeded")
		}
	}
	st := c.Stats()
	if st.BreakerOpens < 1 || st.BreakerState != "open" {
		t.Fatalf("breaker never opened: %+v", st)
	}

	// While open, calls fail fast without touching the network.
	before := c.Stats().Attempts
	if _, err := c.Color(ctx, spec, server.NodeRef{Index: 1, Level: 1}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker returned %v, want ErrCircuitOpen", err)
	}
	if got := c.Stats(); got.Attempts != before || got.BreakerRejects < 1 {
		t.Errorf("open breaker still issued attempts: %+v", got)
	}

	// Heal the backend; after the cooldown the half-open probe closes it.
	healthy.Store(true)
	time.Sleep(60 * time.Millisecond)
	color, err := c.Color(ctx, spec, server.NodeRef{Index: 1, Level: 1})
	if err != nil {
		t.Fatalf("post-recovery call: %v", err)
	}
	if want := int(tree.V(1, 1).HeapIndex() % 3); color != want {
		t.Errorf("post-recovery color %d, want %d", color, want)
	}
	if st := c.Stats(); st.BreakerState != "closed" {
		t.Errorf("breaker state %q after recovery, want closed", st.BreakerState)
	}
}

// Hedged reads: a slow primary is beaten by the hedge, the loser is
// canceled, and no goroutine survives the call.
func TestHedgedReadWinsAndCancelsLoser(t *testing.T) {
	defer testutil.CheckGoroutines(t)()

	var n atomic.Int64
	loserCanceled := make(chan struct{})
	inner, stop := realHandler()
	defer stop()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			// First request stalls well past the hedge delay; its context is
			// canceled when the hedge wins, so honor cancellation. net/http
			// notices the client's disconnect only once the handler has
			// read the request body.
			_, _ = io.Copy(io.Discard, r.Body)
			select {
			case <-time.After(2 * time.Second):
				t.Error("the stalled primary was never canceled")
			case <-r.Context().Done():
				close(loserCanceled)
			}
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	cfg := fastConfig(ts.URL)
	cfg.HedgeDelay = 10 * time.Millisecond
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.CloseIdleConnections()

	start := time.Now()
	spec := server.MappingSpec{Alg: "mod", Levels: 10, Modules: 3}
	color, err := c.Color(context.Background(), spec, server.NodeRef{Index: 2, Level: 2})
	if err != nil {
		t.Fatal(err)
	}
	if want := int(tree.V(2, 2).HeapIndex() % 3); color != want {
		t.Errorf("color %d, want %d", color, want)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("hedged read took %v — hedge never fired", d)
	}
	st := c.Stats()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Errorf("stats %+v, want one winning hedge", st)
	}
	select {
	case <-loserCanceled:
	case <-time.After(time.Second):
		t.Error("the losing primary's cancellation never reached the server")
	}
}

// A fast primary means the hedge never launches.
func TestHedgeNotLaunchedWhenPrimaryFast(t *testing.T) {
	_, c := newTestServerAndClient(t, server.Config{}, func(cfg Config) Config {
		cfg.HedgeDelay = 500 * time.Millisecond
		return cfg
	})
	spec := server.MappingSpec{Alg: "mod", Levels: 10, Modules: 3}
	if _, err := c.Color(context.Background(), spec, server.NodeRef{Index: 0, Level: 0}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hedges != 0 {
		t.Errorf("hedges = %d, want 0", st.Hedges)
	}
}

// End-to-end chaos: every fault class enabled at once against the real
// server; the client must absorb all of it without surfacing an error
// and without leaking goroutines.
func TestClientSurvivesFullChaos(t *testing.T) {
	defer testutil.CheckGoroutines(t)()

	inj := faultinject.New(faultinject.Config{
		Seed:        1234,
		LatencyProb: 0.15, LatencyMin: time.Millisecond, LatencyMax: 5 * time.Millisecond,
		ErrorProb: 0.15, RateLimitProb: 0.15, BurstLen: 4,
		ResetProb: 0.08, DripProb: 0.08, DripChunk: 16, DripDelay: 100 * time.Microsecond,
		PartialProb: 0.08,
	})
	inner, stop := realHandler()
	defer stop()
	ts := httptest.NewServer(inj.Middleware(inner))
	defer ts.Close()

	cfg := fastConfig(ts.URL)
	cfg.MaxAttempts = 8
	cfg.HedgeDelay = 20 * time.Millisecond
	cfg.Breaker = BreakerConfig{FailureThreshold: -1} // chaos is not an outage
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.CloseIdleConnections()
	// The injector's 429s carry Retry-After: 1, which floors the backoff
	// at a second. Record each requested delay but sleep at most
	// MaxBackoff: a wait that returned at once would spend a call's
	// attempts on a 5xx burst before its hedge could fire.
	var waitMu sync.Mutex
	var longestWait time.Duration
	c.wait = func(ctx context.Context, d time.Duration) error {
		waitMu.Lock()
		longestWait = max(longestWait, d)
		waitMu.Unlock()
		timer := time.NewTimer(min(d, cfg.MaxBackoff))
		defer timer.Stop()
		select {
		case <-timer.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}

	spec := server.MappingSpec{Alg: "mod", Levels: 12, Modules: 7}
	ctx := context.Background()
	const calls = 120
	for i := 0; i < calls; i++ {
		n := tree.FromHeapIndex(int64(i * 17 % 4095))
		color, err := c.Color(ctx, spec, server.NodeRef{Index: n.Index, Level: n.Level})
		if err != nil {
			t.Fatalf("call %d under chaos: %v", i, err)
		}
		if want := int(n.HeapIndex() % 7); color != want {
			t.Fatalf("call %d: color %d, want %d", i, color, want)
		}
	}
	st := c.Stats()
	if st.Retries == 0 {
		t.Error("chaos run needed no retries — injector inert?")
	}
	faults := inj.Counts()
	var injected int64
	for kind, cnt := range faults {
		if kind != "none" {
			injected += cnt
		}
	}
	if injected == 0 {
		t.Errorf("no faults injected: %v", faults)
	}
	waitMu.Lock()
	defer waitMu.Unlock()
	if longestWait < time.Second {
		t.Errorf("longest backoff %v: the 429s' Retry-After: 1 floor was not honoured", longestWait)
	}
	t.Logf("chaos survived: %d calls, stats %+v, faults %v", calls, st, faults)
}
