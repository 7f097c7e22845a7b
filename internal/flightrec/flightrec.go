// Package flightrec is pmsd's black box: an always-on, bounded flight
// recorder plus SLO watchdog. It keeps rings of recent activity — one
// Capture per served request (the journal Event with identity, stage
// timings and cumulative conflict/bound counters at finish, plus the
// request body as received), periodic MetricFrame snapshots of the
// server's counter surface, and controller Decision events — and
// evaluates SLO rules over a rolling window on every tick. When a rule
// newly breaches, the rings are frozen into a checksummed PMSINC1
// incident file (format.go) bundling the event journal, before/after
// metric frames, the slowest-trace buffer, the controller's last
// decisions and a PMSTRC1 replay trace rebuilt from the same captures,
// so the traffic that produced the anomaly can be re-driven
// deterministically by cmd/pmsdoctor.
//
// Everything is bounded: the rings overwrite their oldest entries (the
// eviction is counted, never silent), snapshot writes are rate-limited,
// and recording a request is one mutex push of a by-value struct — no
// per-request allocations beyond the strings and body the request
// already owns.
// The clock is injectable, so the watchdog's breach/recovery/rate-limit
// semantics are tested against a deterministic timeline.
package flightrec

import (
	"cmp"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
	"repro/internal/replay"
)

// Event is one served request as the flight recorder saw it. Counter
// fields (Conflicts, BoundChecks, BoundViolations) are the server's
// cumulative totals at the moment the event finished; consumers diff
// consecutive events to attribute deltas.
type Event struct {
	TS        int64  `json:"ts_us"` // finish time, unix µs
	RequestID string `json:"request_id,omitempty"`
	Tenant    string `json:"tenant,omitempty"`
	Endpoint  string `json:"endpoint"`
	Requested string `json:"requested,omitempty"` // mapping key the request asked for
	Effective string `json:"effective,omitempty"` // mapping key actually served (controller overrides)
	Status    int    `json:"status"`
	TotalUS   int64  `json:"total_us"`
	// StagesUS are per-stage microsecond totals indexed by obsv.Stage
	// (zeroes when the request was not traced).
	StagesUS [obsv.NumStages]int64 `json:"stages_us"`

	Conflicts       int64 `json:"conflicts"`
	BoundChecks     int64 `json:"bound_checks"`
	BoundViolations int64 `json:"bound_violations"`
}

// Capture is one request as the server's capture point saw it: the
// journal Event plus the request as received. Incidents journal the
// Events and rebuild their PMSTRC1 window from the Reqs of the same
// ring, so both always name the same requests.
type Capture struct {
	Event
	// Seq is the request's arrival order. Completion order can differ
	// under concurrency; the window replays in arrival order.
	Seq uint64
	// Req is the request as received. Req.Body is nil when no body was
	// captured (not a POST, or a body over the size cap or unreadable);
	// such a request is journaled but not replayable.
	Req replay.Record
}

// Decision is one controller decision event.
type Decision struct {
	TS     int64  `json:"ts_us"`
	Spec   string `json:"spec"`
	Action string `json:"action"`
	From   string `json:"from,omitempty"`
	To     string `json:"to,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// EndpointFrame is one endpoint's cumulative request counters in a frame.
type EndpointFrame struct {
	Requests  int64 `json:"requests"`
	Errors5xx int64 `json:"errors_5xx,omitempty"`
	Errors4xx int64 `json:"errors_4xx,omitempty"`
}

// TenantFrame is one tenant's cumulative admission counters in a frame.
type TenantFrame struct {
	Requests int64 `json:"requests"`
	Rejected int64 `json:"rejected,omitempty"`
}

// StageFrame is one obsv stage histogram's cumulative counters.
type StageFrame struct {
	Count   int64                  `json:"count"`
	SumUS   int64                  `json:"sum_us"`
	Buckets [obsv.NumBuckets]int64 `json:"buckets"`
}

// MetricFrame is one periodic snapshot of the server's counter surface.
// All values are cumulative since process start; the analyzer diffs the
// first frame (pre-window baseline) against the freeze frame.
type MetricFrame struct {
	TS                   int64                    `json:"ts_us"`
	Requests             int64                    `json:"requests"`
	Errors5xx            int64                    `json:"errors_5xx"`
	Rejected429          int64                    `json:"rejected_429"`
	Accesses             int64                    `json:"accesses"`
	Conflicts            int64                    `json:"conflicts"`
	BoundChecks          int64                    `json:"bound_checks"`
	BoundViolations      int64                    `json:"bound_violations"`
	ControllerDecisions  int64                    `json:"controller_decisions"`
	ControllerMigrations int64                    `json:"controller_migrations"`
	Endpoints            map[string]EndpointFrame `json:"endpoints,omitempty"`
	Tenants              map[string]TenantFrame   `json:"tenants,omitempty"`
	Stages               map[string]StageFrame    `json:"stages,omitempty"`
}

// Config tunes a Recorder. Zero values take the documented defaults.
type Config struct {
	// Events / Frames / Decisions size the three rings
	// (defaults 2048 / 64 / 128). The events ring retains request
	// bodies, so its size bounds the recorder's body memory.
	Events    int
	Frames    int
	Decisions int
	// FrameEvery spaces the periodic frames pushed into the frame ring
	// (default 1s). The watchdog captures a fresh frame on every tick
	// regardless; this only paces ring retention.
	FrameEvery time.Duration
	// SLO configures the watchdog rules and tick cadence.
	SLO SLOConfig
	// Dir is where watchdog-triggered incident snapshots land; empty
	// disables automatic writes (manual Freeze still works).
	Dir string
	// Meta is stamped into every incident (e.g. the chaos-injector
	// config of the run, so pmsdoctor -replay can rebuild it).
	Meta map[string]string

	// Frame supplies the current cumulative counter surface (nil → zero
	// frames; rate/delta rules then never fire).
	Frame func() MetricFrame
	// Traces supplies the slowest-trace buffer bundled into incidents.
	Traces func() []obsv.TraceSnapshot
	// Now is the watchdog clock (default time.Now) — injectable so rule
	// semantics are testable on a deterministic timeline.
	Now func() time.Time
	// Logger receives breach/recovery/snapshot log lines (default
	// slog.Default()).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Events <= 0 {
		c.Events = 2048
	}
	if c.Frames <= 0 {
		c.Frames = 64
	}
	if c.Decisions <= 0 {
		c.Decisions = 128
	}
	if c.FrameEvery <= 0 {
		c.FrameEvery = time.Second
	}
	c.SLO = c.SLO.withDefaults()
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// CountersSnapshot exports the recorder's own counters for /metrics.
type CountersSnapshot struct {
	Events               int64            `json:"events"`
	EventsEvicted        int64            `json:"events_evicted"`
	Frames               int64            `json:"frames"`
	Decisions            int64            `json:"decisions"`
	Breaches             int64            `json:"breaches"`
	Recoveries           int64            `json:"recoveries"`
	Snapshots            int64            `json:"snapshots"`
	SnapshotErrors       int64            `json:"snapshot_errors"`
	SnapshotsRateLimited int64            `json:"snapshots_rate_limited"`
	RuleBreaches         map[string]int64 `json:"rule_breaches,omitempty"`
}

// tickSample is one watchdog observation of the cumulative counters the
// delta rules (bound violations, migration churn) window over.
type tickSample struct {
	tsUS       int64
	violations int64
	migrations int64
}

// Recorder is the flight recorder. Safe for arbitrary concurrency.
type Recorder struct {
	cfg Config

	evMu   sync.Mutex
	events ring[Capture]

	frMu   sync.Mutex
	frames ring[MetricFrame]
	frLast time.Time // last frame pushed into the ring

	decMu sync.Mutex
	decs  ring[Decision]

	// Watchdog state, guarded by wdMu: per-rule breached flags for
	// recovery accounting, the tick-sample window for delta rules, and
	// the snapshot rate limiter.
	wdMu         sync.Mutex
	breached     map[string]bool
	samples      []tickSample
	lastSnapshot time.Time

	breaches       atomic.Int64
	recoveries     atomic.Int64
	snapshots      atomic.Int64
	snapshotErrs   atomic.Int64
	rateLimited    atomic.Int64
	ruleBreachesMu sync.Mutex
	ruleBreaches   map[string]int64

	stop chan struct{}
	done chan struct{}
}

// New builds a recorder; the background watchdog loop is not started
// until Start (tests drive Tick directly).
func New(cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	return &Recorder{
		cfg:          cfg,
		events:       newRing[Capture](cfg.Events),
		frames:       newRing[MetricFrame](cfg.Frames),
		decs:         newRing[Decision](cfg.Decisions),
		breached:     make(map[string]bool),
		ruleBreaches: make(map[string]int64),
	}
}

// Record pushes one request capture into the ring, overwriting the
// oldest when full. Nil-safe.
func (r *Recorder) Record(c Capture) {
	if r == nil {
		return
	}
	r.evMu.Lock()
	r.events.push(c)
	r.evMu.Unlock()
}

// RecordDecision pushes one controller decision event. Nil-safe.
func (r *Recorder) RecordDecision(d Decision) {
	if r == nil {
		return
	}
	r.decMu.Lock()
	r.decs.push(d)
	r.decMu.Unlock()
}

func (r *Recorder) captures() []Capture {
	r.evMu.Lock()
	defer r.evMu.Unlock()
	return r.events.snapshot()
}

// EventsSnapshot copies the live events, oldest first.
func (r *Recorder) EventsSnapshot() []Event {
	if r == nil {
		return nil
	}
	return journal(r.captures())
}

// journal extracts the Events of captures, in ring order.
func journal(caps []Capture) []Event {
	out := make([]Event, len(caps))
	for i := range caps {
		out[i] = caps[i].Event
	}
	return out
}

// window rebuilds the replayable trace from the captures that carry a
// body, in arrival order.
func window(caps []Capture) *replay.Trace {
	var kept []Capture
	for _, c := range caps {
		if c.Req.Body != nil {
			kept = append(kept, c)
		}
	}
	slices.SortFunc(kept, func(a, b Capture) int { return cmp.Compare(a.Seq, b.Seq) })
	tr := &replay.Trace{Records: make([]replay.Record, len(kept))}
	for i, c := range kept {
		tr.Records[i] = c.Req
	}
	return tr
}

// eventsSince copies the events with TS >= sinceUS, oldest first.
func (r *Recorder) eventsSince(sinceUS int64) []Event {
	all := r.EventsSnapshot()
	i := 0
	for i < len(all) && all[i].TS < sinceUS {
		i++
	}
	return all[i:]
}

// FramesSnapshot copies the frame ring, oldest first.
func (r *Recorder) FramesSnapshot() []MetricFrame {
	if r == nil {
		return nil
	}
	r.frMu.Lock()
	defer r.frMu.Unlock()
	return r.frames.snapshot()
}

// DecisionsSnapshot copies the decision ring, oldest first.
func (r *Recorder) DecisionsSnapshot() []Decision {
	if r == nil {
		return nil
	}
	r.decMu.Lock()
	defer r.decMu.Unlock()
	return r.decs.snapshot()
}

// Counters reads the recorder's counter surface. Nil-safe.
func (r *Recorder) Counters() CountersSnapshot {
	if r == nil {
		return CountersSnapshot{}
	}
	s := CountersSnapshot{
		Breaches:             r.breaches.Load(),
		Recoveries:           r.recoveries.Load(),
		Snapshots:            r.snapshots.Load(),
		SnapshotErrors:       r.snapshotErrs.Load(),
		SnapshotsRateLimited: r.rateLimited.Load(),
	}
	r.evMu.Lock()
	s.Events, s.EventsEvicted = r.events.total, r.events.evicted
	r.evMu.Unlock()
	r.frMu.Lock()
	s.Frames = r.frames.total
	r.frMu.Unlock()
	r.decMu.Lock()
	s.Decisions = r.decs.total
	r.decMu.Unlock()
	r.ruleBreachesMu.Lock()
	if len(r.ruleBreaches) > 0 {
		s.RuleBreaches = make(map[string]int64, len(r.ruleBreaches))
		for k, v := range r.ruleBreaches {
			s.RuleBreaches[k] = v
		}
	}
	r.ruleBreachesMu.Unlock()
	return s
}

// captureFrame asks the server for the current counter surface and
// pushes it into the frame ring when FrameEvery has elapsed since the
// last retained frame. The fresh frame is returned either way.
func (r *Recorder) captureFrame(now time.Time) MetricFrame {
	var f MetricFrame
	if r.cfg.Frame != nil {
		f = r.cfg.Frame()
	}
	f.TS = now.UnixMicro()
	r.frMu.Lock()
	if r.frLast.IsZero() || now.Sub(r.frLast) >= r.cfg.FrameEvery {
		r.frames.push(f)
		r.frLast = now
	}
	r.frMu.Unlock()
	return f
}

// Tick runs one watchdog pass at the given instant: captures a metric
// frame, evaluates the SLO rules over the rolling window, accounts
// breach/recovery transitions, and — when a rule newly breaches and a
// snapshot directory is configured — writes a rate-limited incident
// snapshot. It returns the rules that newly breached on this tick.
func (r *Recorder) Tick(now time.Time) []Breach {
	if r == nil {
		return nil
	}
	frame := r.captureFrame(now)
	nowUS := now.UnixMicro()
	windowUS := r.cfg.SLO.Window.Microseconds()

	r.wdMu.Lock()
	// Retire samples older than the window, keep one just-outside sample
	// as the delta baseline.
	cut := 0
	for cut < len(r.samples)-1 && r.samples[cut+1].tsUS <= nowUS-windowUS {
		cut++
	}
	r.samples = append(r.samples[cut:], tickSample{
		tsUS:       nowUS,
		violations: frame.BoundViolations,
		migrations: frame.ControllerMigrations,
	})
	base := r.samples[0]
	r.wdMu.Unlock()

	events := r.eventsSince(nowUS - windowUS)
	results := evaluate(events, windowCounters{
		ViolationsDelta: frame.BoundViolations - base.violations,
		MigrationsDelta: frame.ControllerMigrations - base.migrations,
	}, r.cfg.SLO, nowUS)

	var fired []Breach
	r.wdMu.Lock()
	for _, res := range results {
		was := r.breached[res.Rule]
		if res.Breached && !was {
			r.breached[res.Rule] = true
			fired = append(fired, res.Breach)
		}
		if !res.Breached && was {
			r.breached[res.Rule] = false
			r.recoveries.Add(1)
			r.cfg.Logger.Info("slo recovered", "rule", res.Rule)
		}
	}
	r.wdMu.Unlock()

	if len(fired) > 0 {
		r.breaches.Add(int64(len(fired)))
		r.ruleBreachesMu.Lock()
		for _, b := range fired {
			r.ruleBreaches[b.Rule]++
		}
		r.ruleBreachesMu.Unlock()
		for _, b := range fired {
			r.cfg.Logger.Warn("slo breach",
				"rule", b.Rule, "value", b.Value, "threshold", b.Threshold,
				"window_requests", b.Requests)
		}
		r.writeBreachSnapshot(now, fired)
	}
	return fired
}

// writeBreachSnapshot freezes and persists an incident for newly fired
// breaches, subject to the configured directory and rate limit.
func (r *Recorder) writeBreachSnapshot(now time.Time, fired []Breach) {
	if r.cfg.Dir == "" {
		return
	}
	r.wdMu.Lock()
	if !r.lastSnapshot.IsZero() && now.Sub(r.lastSnapshot) < r.cfg.SLO.SnapshotMinInterval {
		r.wdMu.Unlock()
		r.rateLimited.Add(1)
		return
	}
	r.lastSnapshot = now
	r.wdMu.Unlock()

	inc := r.Freeze(now, "watchdog", fired)
	path, err := WriteIncident(r.cfg.Dir, inc)
	if err != nil {
		r.snapshotErrs.Add(1)
		r.cfg.Logger.Error("incident snapshot write failed", "err", err)
		return
	}
	r.snapshots.Add(1)
	r.cfg.Logger.Warn("incident snapshot written", "path", path,
		"events", len(inc.Events), "rules", ruleNames(fired))
}

// Freeze assembles the current rings and trace buffer into an Incident;
// its event journal and replay window come from one snapshot of the
// captures ring. The rings keep recording; the incident is independent
// storage.
func (r *Recorder) Freeze(now time.Time, reason string, breaches []Breach) *Incident {
	caps := r.captures()
	inc := &Incident{
		Meta: IncidentMeta{
			CreatedUS: now.UnixMicro(),
			Reason:    reason,
			Breaches:  breaches,
			SLO:       r.cfg.SLO,
			Counters:  r.Counters(),
			Meta:      r.cfg.Meta,
		},
		Events:    journal(caps),
		Trace:     window(caps),
		Frames:    r.FramesSnapshot(),
		Decisions: r.DecisionsSnapshot(),
	}
	// The freeze-time frame is the incident's "after" snapshot; the
	// oldest ring frame is the pre-window baseline.
	inc.Frames = append(inc.Frames, r.captureFrame(now))
	if r.cfg.Traces != nil {
		inc.Traces = r.cfg.Traces()
	}
	return inc
}

// Start launches the background watchdog loop at the SLO tick interval.
// Stop must be called to release it.
func (r *Recorder) Start() {
	if r == nil || r.stop != nil {
		return
	}
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	go func() {
		defer close(r.done)
		t := time.NewTicker(r.cfg.SLO.Interval)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				r.Tick(r.cfg.Now())
			}
		}
	}()
}

// Stop halts the background loop (no-op if never started). Nil-safe.
func (r *Recorder) Stop() {
	if r == nil || r.stop == nil {
		return
	}
	close(r.stop)
	<-r.done
	r.stop = nil
	r.done = nil
}

func ruleNames(bs []Breach) string {
	s := ""
	for i, b := range bs {
		if i > 0 {
			s += ","
		}
		s += b.Rule
	}
	return s
}
