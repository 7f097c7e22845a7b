// Ring and watchdog semantics under a deterministic clock: every SLO
// rule's breach, recovery and snapshot-rate-limit transitions are
// driven tick by tick with an injected Now, so the assertions are
// exact, not timing-dependent.
package flightrec

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/replay"
	"repro/internal/testutil"
)

// quiet silences breach/recovery log lines in tests.
var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

func TestEventRingOverwrite(t *testing.T) {
	r := New(Config{Events: 4, Logger: quiet})
	for i := 0; i < 6; i++ {
		r.Record(Capture{Event: Event{TS: int64(i), Status: 200}})
	}
	evs := r.EventsSnapshot()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(i + 2); ev.TS != want {
			t.Errorf("event %d has TS %d, want %d (oldest-first after overwrite)", i, ev.TS, want)
		}
	}
	c := r.Counters()
	if c.Events != 6 || c.EventsEvicted != 2 {
		t.Errorf("counters events=%d evicted=%d, want 6/2", c.Events, c.EventsEvicted)
	}
}

// TestFreezeWindowInArrivalOrder: the incident's replay window is cut
// from the same captures as its journal, keeps only the captures that
// carry a body, and replays them in arrival order even when they
// finished out of order.
func TestFreezeWindowInArrivalOrder(t *testing.T) {
	r := New(Config{Events: 4, Logger: quiet})
	body := func(s string) replay.Record { return replay.Record{Path: "/v1/color", Body: []byte(s)} }
	for _, c := range []Capture{
		{Seq: 1, Req: body("evicted")},
		{Seq: 3, Req: body("c")},
		{Seq: 2, Req: body("b")},
		{Seq: 5}, // no body captured: journaled, not replayable
		{Seq: 4, Req: replay.Record{Path: "/v1/range", Body: []byte{}}},
	} {
		c.Event = Event{TS: int64(c.Seq), Status: 200}
		r.Record(c)
	}
	inc := r.Freeze(time.UnixMicro(10), "manual", nil)
	if len(inc.Events) != 4 || inc.Events[0].TS != 3 || inc.Events[3].TS != 4 {
		t.Fatalf("journal %+v, want the last four captures in completion order", inc.Events)
	}
	var got []string
	for _, rec := range inc.Trace.Records {
		got = append(got, rec.Path+":"+string(rec.Body))
	}
	if want := "[/v1/color:b /v1/color:c /v1/range:]"; fmt.Sprint(got) != want {
		t.Fatalf("window %v, want %s", got, want)
	}
}

func TestDecisionRing(t *testing.T) {
	r := New(Config{Decisions: 2, Logger: quiet})
	for i := 0; i < 3; i++ {
		r.RecordDecision(Decision{TS: int64(i), Action: "migrate"})
	}
	decs := r.DecisionsSnapshot()
	if len(decs) != 2 || decs[0].TS != 1 || decs[1].TS != 2 {
		t.Fatalf("decision ring %+v, want the last two oldest-first", decs)
	}
	if c := r.Counters(); c.Decisions != 3 {
		t.Errorf("decision total %d, want 3", c.Decisions)
	}
}

// newTestRecorder builds a recorder with a fixed epoch and the given
// SLO, watchdog driven manually via Tick.
func newTestRecorder(t *testing.T, slo SLOConfig, dir string) (*Recorder, time.Time) {
	t.Helper()
	epoch := time.UnixMicro(1_700_000_000_000_000)
	r := New(Config{SLO: slo, Dir: dir, Logger: quiet})
	return r, epoch
}

// record pushes n events finishing at ts, each with the given status
// and latency.
func record(r *Recorder, ts time.Time, n, status int, totalUS int64, tenant string) {
	for i := 0; i < n; i++ {
		r.Record(Capture{Event: Event{TS: ts.UnixMicro(), Status: status, TotalUS: totalUS, Tenant: tenant, Endpoint: "color"}})
	}
}

func firedRules(bs []Breach) []string {
	var out []string
	for _, b := range bs {
		out = append(out, b.Rule)
	}
	return out
}

func TestWatchdogErrorRateBreachRecoverySnapshotRateLimit(t *testing.T) {
	dir := t.TempDir()
	slo := SLOConfig{Window: 10 * time.Second, MinRequests: 5, ErrorRatePct: 10, DisableBoundRule: true, SnapshotMinInterval: 30 * time.Second}
	r, t0 := newTestRecorder(t, slo, dir)

	incidents := func() []string {
		paths, err := filepath.Glob(filepath.Join(dir, "*.pmsinc"))
		if err != nil {
			t.Fatal(err)
		}
		return paths
	}

	// Healthy window: under MinRequests, no rule may fire.
	record(r, t0, 3, 500, 100, "")
	if fired := r.Tick(t0); len(fired) != 0 {
		t.Fatalf("window below MinRequests fired %v", firedRules(fired))
	}

	// 50%% 5xx over 10 events: breach once, snapshot written.
	record(r, t0.Add(time.Second), 7, 200, 100, "")
	fired := r.Tick(t0.Add(time.Second))
	if len(fired) != 1 || fired[0].Rule != RuleErrorRate {
		t.Fatalf("fired %v, want [error_rate]", firedRules(fired))
	}
	if got := incidents(); len(got) != 1 {
		t.Fatalf("%d incident files after first breach, want 1", len(got))
	}

	// Still breaching on the next tick: no re-fire, no second snapshot.
	if fired := r.Tick(t0.Add(2 * time.Second)); len(fired) != 0 {
		t.Fatalf("persisting breach re-fired %v", firedRules(fired))
	}

	// Events age out of the window: the rule recovers.
	r.Tick(t0.Add(15 * time.Second))
	if c := r.Counters(); c.Recoveries != 1 {
		t.Fatalf("recoveries %d, want 1 after the window drained", c.Recoveries)
	}

	// Fresh breach inside the snapshot rate-limit interval: counted, but
	// the snapshot is suppressed.
	record(r, t0.Add(16*time.Second), 10, 500, 100, "")
	fired = r.Tick(t0.Add(16 * time.Second))
	if len(fired) != 1 {
		t.Fatalf("second breach fired %v", firedRules(fired))
	}
	c := r.Counters()
	if c.SnapshotsRateLimited != 1 || c.Snapshots != 1 {
		t.Fatalf("rate-limited %d snapshots %d, want 1/1", c.SnapshotsRateLimited, c.Snapshots)
	}
	if got := incidents(); len(got) != 1 {
		t.Fatalf("%d incident files during rate limit, want 1", len(got))
	}

	// Recover again, then breach past the rate-limit horizon: a second
	// snapshot lands.
	r.Tick(t0.Add(31 * time.Second))
	record(r, t0.Add(40*time.Second), 10, 500, 100, "")
	fired = r.Tick(t0.Add(40 * time.Second))
	if len(fired) != 1 {
		t.Fatalf("third breach fired %v", firedRules(fired))
	}
	c = r.Counters()
	if c.Breaches != 3 || c.Recoveries != 2 || c.Snapshots != 2 {
		t.Fatalf("breaches=%d recoveries=%d snapshots=%d, want 3/2/2", c.Breaches, c.Recoveries, c.Snapshots)
	}
	if got := incidents(); len(got) != 2 {
		t.Fatalf("%d incident files, want 2", len(got))
	}
	if c.RuleBreaches[RuleErrorRate] != 3 {
		t.Errorf("rule breach counter %v, want error_rate=3", c.RuleBreaches)
	}
}

func TestWatchdogP99LatencyRule(t *testing.T) {
	slo := SLOConfig{Window: 10 * time.Second, MinRequests: 5, P99TargetUS: 1000, DisableBoundRule: true}
	r, t0 := newTestRecorder(t, slo, "")

	record(r, t0, 10, 200, 500, "")
	if fired := r.Tick(t0); len(fired) != 0 {
		t.Fatalf("p99 under target fired %v", firedRules(fired))
	}
	record(r, t0.Add(time.Second), 10, 200, 5000, "")
	fired := r.Tick(t0.Add(time.Second))
	if len(fired) != 1 || fired[0].Rule != RuleP99Latency {
		t.Fatalf("fired %v, want [p99_latency]", firedRules(fired))
	}
	if fired[0].Value <= 1000 {
		t.Errorf("breach value %.0f must exceed the 1000us target", fired[0].Value)
	}
}

func TestWatchdogBoundViolationRule(t *testing.T) {
	var violations int64
	r := New(Config{
		SLO:    SLOConfig{Window: 10 * time.Second},
		Frame:  func() MetricFrame { return MetricFrame{BoundViolations: violations} },
		Logger: quiet,
	})
	t0 := time.UnixMicro(1_700_000_000_000_000)

	// First tick establishes the baseline sample; no delta yet.
	if fired := r.Tick(t0); len(fired) != 0 {
		t.Fatalf("baseline tick fired %v", firedRules(fired))
	}
	violations = 1
	fired := r.Tick(t0.Add(time.Second))
	if len(fired) != 1 || fired[0].Rule != RuleBoundViolation {
		t.Fatalf("fired %v, want [bound_violations] — the rule is on by default and has no MinRequests gate", firedRules(fired))
	}
	// The counter is cumulative and stable: once the dirty sample leaves
	// the window the rule recovers.
	r.Tick(t0.Add(30 * time.Second))
	if c := r.Counters(); c.Recoveries != 1 {
		t.Errorf("recoveries %d, want 1 after the violation delta aged out", c.Recoveries)
	}
}

func TestWatchdogTenantRejectsRule(t *testing.T) {
	slo := SLOConfig{Window: 10 * time.Second, MinRequests: 5, TenantRejectSharePct: 20, DisableBoundRule: true}
	r, t0 := newTestRecorder(t, slo, "")

	record(r, t0, 6, 200, 100, "good")
	record(r, t0, 4, 429, 100, "noisy")
	fired := r.Tick(t0)
	if len(fired) != 1 || fired[0].Rule != RuleTenantRejects {
		t.Fatalf("fired %v, want [tenant_rejects]", firedRules(fired))
	}
	if fired[0].Detail != "noisy" {
		t.Errorf("breach detail %q, want the offending tenant \"noisy\"", fired[0].Detail)
	}
}

func TestWatchdogMigrationChurnRule(t *testing.T) {
	var migrations int64
	r := New(Config{
		SLO:    SLOConfig{Window: 10 * time.Second, MaxMigrations: 2, DisableBoundRule: true},
		Frame:  func() MetricFrame { return MetricFrame{ControllerMigrations: migrations} },
		Logger: quiet,
	})
	t0 := time.UnixMicro(1_700_000_000_000_000)

	r.Tick(t0)
	migrations = 2
	if fired := r.Tick(t0.Add(time.Second)); len(fired) != 0 {
		t.Fatalf("churn at the limit fired %v", firedRules(fired))
	}
	migrations = 5
	fired := r.Tick(t0.Add(2 * time.Second))
	if len(fired) != 1 || fired[0].Rule != RuleMigrationChurn {
		t.Fatalf("fired %v, want [migration_churn]", firedRules(fired))
	}
}

// TestRingHammer drives every recorder surface from many goroutines
// under -race with the leak checker watching: recording, snapshots,
// manual ticks and the background watchdog loop all at once.
func TestRingHammer(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	r := New(Config{
		Events: 64, Frames: 4, Decisions: 8,
		SLO:    SLOConfig{Window: time.Second, Interval: time.Millisecond, ErrorRatePct: 1, MinRequests: 1},
		Frame:  func() MetricFrame { return MetricFrame{Requests: 1} },
		Logger: quiet,
	})
	r.Start()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Record(Capture{Event: Event{TS: int64(i), Status: 200 + (i%2)*300, TotalUS: int64(i)}})
				if i%17 == 0 {
					r.RecordDecision(Decision{TS: int64(i), Action: "hold"})
				}
				if i%29 == 0 {
					_ = r.EventsSnapshot()
					_ = r.FramesSnapshot()
					_ = r.DecisionsSnapshot()
					_ = r.Counters()
				}
				if i%43 == 0 {
					_ = r.Tick(time.Now())
					_ = r.Freeze(time.Now(), "manual", nil)
				}
			}
		}(g)
	}
	wg.Wait()
	r.Stop()
	r.Stop() // idempotent
	c := r.Counters()
	if c.Events != 8*500 {
		t.Errorf("hammer recorded %d events, want %d", c.Events, 8*500)
	}
	if c.EventsEvicted != c.Events-64 {
		t.Errorf("evicted %d, want %d (every overwrite counted)", c.EventsEvicted, c.Events-64)
	}
}

// TestNilRecorder: every method is nil-safe so the server can run with
// the recorder disabled without guarding call sites.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.Record(Capture{Event: Event{}})
	r.RecordDecision(Decision{})
	r.Start()
	r.Stop()
	if got := r.Tick(time.Now()); got != nil {
		t.Errorf("nil Tick returned %v", got)
	}
	if evs := r.EventsSnapshot(); evs != nil {
		t.Errorf("nil EventsSnapshot returned %v", evs)
	}
	if c := r.Counters(); c.Events != 0 {
		t.Errorf("nil Counters returned %+v", c)
	}
}

// TestWriteIncidentLeavesNoTmp: the tmp file never survives a
// successful write, and the directory scan used by pmsdoctor ignores
// anything but *.pmsinc.
func TestWriteIncidentLeavesNoTmp(t *testing.T) {
	dir := t.TempDir()
	r, t0 := newTestRecorder(t, SLOConfig{}, dir)
	inc := r.Freeze(t0, "manual", nil)
	path, err := WriteIncident(dir, inc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("tmp file survived the rename: %v", err)
	}
	if _, err := ReadIncident(path); err != nil {
		t.Fatalf("written incident unreadable: %v", err)
	}
}
