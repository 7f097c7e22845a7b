// Incident replay: the server-side half of pmsdoctor -replay. An
// incident bundles the PMSTRC1 window of the requests that crossed the
// breach, plus (when pmsd ran under -chaos) the fault injector's config.
// ReplayIncident re-drives that window against two fresh deterministic
// servers — with the chaos schedule rebuilt, so the same request indexes
// draw the same faults — and confirms reproduction on two axes:
//
//   - determinism: both replays produce bit-identical response digests
//     (the same contract TestMixedRecordReplayDeterminism holds);
//   - rule refire: judging the replayed flight events with the
//     incident's own SLO config re-fires every count-based rule that
//     fired originally (latency rules depend on replay wall time and
//     are excluded from the verdict).
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/faultinject"
	"repro/internal/flightrec"
	"repro/internal/replay"
)

// ChaosConfigMetaKey is the incident meta key under which pmsd stamps
// the fault injector's JSON config, so the replayer can rebuild it.
const ChaosConfigMetaKey = "chaos_config"

// IncidentReplayResult is the reproduction verdict for one incident.
type IncidentReplayResult struct {
	Records      int           `json:"records"`
	ChaosApplied bool          `json:"chaos_applied"`
	Requests     int           `json:"requests"`
	StatusCounts map[int]int64 `json:"status_counts"`

	Digest        string `json:"digest"`
	DigestRerun   string `json:"digest_rerun"`
	Deterministic bool   `json:"deterministic"`

	// OriginalRules are the count-based rules that fired in the original
	// breach; ReplayRules are the rules the incident's SLO config fires
	// over the replayed events. Reproduced = deterministic digests AND
	// every original count-based rule refired.
	OriginalRules []string `json:"original_rules"`
	ReplayRules   []string `json:"replay_rules"`
	Reproduced    bool     `json:"reproduced"`

	BoundChecks     int64 `json:"bound_checks"`
	BoundViolations int64 `json:"bound_violations"`
}

// deterministicRule reports whether a rule's verdict survives replay:
// count-based rules (statuses, counters) do; wall-time rules do not.
func deterministicRule(rule string) bool {
	return rule != flightrec.RuleP99Latency
}

// replayIncidentOnce drives the incident's trace through a fresh
// deterministic server's full middleware chain (capture point, rebuilt
// chaos) and judges the replayed events against the
// incident's SLO config.
func replayIncidentOnce(base Config, inc *flightrec.Incident, chaos *faultinject.Config) (replay.Result, []flightrec.Breach, int64, int64, error) {
	cfg := replayServerConfig(base)
	cfg.DisableFlightRec = false
	if chaos != nil {
		in := faultinject.New(*chaos)
		cfg.Middleware = in.Middleware
	}
	srv := New(cfg)
	// Replay through the composed handler, not the bare mux: the chaos
	// layer must answer the same request indexes it answered live, and
	// the capture middleware must see those answers.
	res := replay.Replay(srv.httpSrv.Handler, inc.Trace)
	events := srv.fr.EventsSnapshot()
	frame := srv.metricFrame()
	breaches := flightrec.EvaluateStatic(events, frame, inc.Meta.SLO)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := srv.Shutdown(ctx)
	return res, breaches, frame.BoundChecks, frame.BoundViolations, err
}

// ReplayIncident re-drives the incident's bundled trace twice and
// returns the reproduction verdict. base is the server config to derive
// the replay servers from (zero value for defaults).
func ReplayIncident(base Config, inc *flightrec.Incident) (IncidentReplayResult, error) {
	out := IncidentReplayResult{}
	if inc.Trace == nil || len(inc.Trace.Records) == 0 {
		return out, fmt.Errorf("incident bundles no replay trace")
	}
	out.Records = len(inc.Trace.Records)

	var chaos *faultinject.Config
	if raw, ok := inc.Meta.Meta[ChaosConfigMetaKey]; ok && raw != "" {
		var cc faultinject.Config
		if err := json.Unmarshal([]byte(raw), &cc); err != nil {
			return out, fmt.Errorf("incident chaos config: %w", err)
		}
		chaos = &cc
		out.ChaosApplied = true
	}

	first, breaches1, checks, viol1, err := replayIncidentOnce(base, inc, chaos)
	if err != nil {
		return out, fmt.Errorf("first replay: %w", err)
	}
	second, breaches2, _, viol2, err := replayIncidentOnce(base, inc, chaos)
	if err != nil {
		return out, fmt.Errorf("second replay: %w", err)
	}

	out.Requests = first.Requests
	out.StatusCounts = first.StatusCounts
	out.Digest = first.Digest
	out.DigestRerun = second.Digest
	out.Deterministic = first.Digest == second.Digest
	out.BoundChecks = checks
	out.BoundViolations = viol1 + viol2

	for _, br := range inc.Meta.Breaches {
		if deterministicRule(br.Rule) {
			out.OriginalRules = append(out.OriginalRules, br.Rule)
		}
	}
	fired := map[string]bool{}
	for _, br := range breaches1 {
		out.ReplayRules = append(out.ReplayRules, br.Rule)
		fired[br.Rule] = true
	}
	// Both replays must agree on the verdict, or reproduction is moot.
	refired2 := map[string]bool{}
	for _, br := range breaches2 {
		refired2[br.Rule] = true
	}
	out.Reproduced = out.Deterministic
	for _, rule := range out.OriginalRules {
		if !fired[rule] || !refired2[rule] {
			out.Reproduced = false
		}
	}
	return out, nil
}
