// Forensics overhead bench: what the always-on flight recorder costs on
// the serving hot path. The identical mixed multi-tenant workload runs
// with the recorder off and fully on (request capture with its body
// read, background watchdog at its default cadence) — and the p50 delta
// is the recorder's price against the serving path as modeled (the
// worker delay stays on, like the trace bench: the recorder is priced
// relative to a parallel memory access, not a zero-latency one). The
// `make bench-forensics` entry records this in BENCH_pr10.json; the
// tentpole claim is <3% at p50.
package server

import (
	"fmt"

	"repro/internal/flightrec"
)

// ForensicsOverheadComparison is the measured off/on pair.
type ForensicsOverheadComparison struct {
	Off LoadGenResult `json:"FlightOff"`
	On  LoadGenResult `json:"FlightOn"`
	// P50 overhead of the recording run vs. the bare one, percent.
	OnP50OverheadPct float64 `json:"FlightP50OverheadPct"`

	// Recorder state after the recording run, hoisted for one-line
	// inspection: every served request became an event, evictions are
	// counted (never silent), and the bound monitor stayed at zero.
	Events          int64 `json:"FlightEvents"`
	EventsEvicted   int64 `json:"FlightEventsEvicted"`
	Breaches        int64 `json:"FlightBreaches"`
	BoundViolations int64 `json:"BoundViolations"`
}

// RunForensicsOverheadComparison runs the mixed workload with the flight
// recorder off and on and reports the p50 cost plus the recorder's
// counters from the recording run. It fails, with the comparison still
// filled in, when that run saw a bound violation or recorded fewer
// flight events than it served requests. The mix workload's heap
// simulations make single runs drift with allocator and GC warm-up, so the
// comparison warms the process untimed and then alternates off/on reps,
// keeping the min p50 of each mode (the storebench min-of-reps idiom).
func RunForensicsOverheadComparison(cfg LoadGenConfig) (ForensicsOverheadComparison, error) {
	if cfg.Endpoint == "" {
		cfg.Endpoint = "mix"
	}
	if cfg.Tenants <= 0 {
		cfg.Tenants = 8
	}
	run := func(mode string, disabled bool, observe func(*Server)) (LoadGenResult, error) {
		c := cfg
		c.Server.DisableFlightRec = disabled
		c.observeServer = observe
		res, err := RunLoadGen(c, "batched")
		res.Mode = mode
		return res, err
	}
	if _, err := run("warmup", true, nil); err != nil {
		return ForensicsOverheadComparison{}, err
	}
	var fc flightrec.CountersSnapshot
	offRun := func() (LoadGenResult, error) { return run("flight_off", true, nil) }
	onRun := func() (LoadGenResult, error) {
		return run("flight_on", false, func(s *Server) { fc = s.fr.Counters() })
	}
	// Alternate the order across reps (off/on, on/off, off/on) so
	// neither mode always sits in the later — slower, drift-penalized —
	// slot; min-of-reps then converges on each mode's floor. The kept
	// recording run keeps its own recorder counters.
	var off, on LoadGenResult
	var onFC flightrec.CountersSnapshot
	for i, pair := range [][2]func() (LoadGenResult, error){{offRun, onRun}, {onRun, offRun}, {offRun, onRun}} {
		for _, f := range pair {
			res, err := f()
			if err != nil {
				return ForensicsOverheadComparison{}, err
			}
			switch {
			case res.Mode == "flight_off" && (i == 0 || res.P50us < off.P50us):
				off = res
			case res.Mode == "flight_on" && (i == 0 || res.P50us < on.P50us):
				on, onFC = res, fc
			}
		}
	}
	cmp := ForensicsOverheadComparison{
		Off:           off,
		On:            on,
		Events:        onFC.Events,
		EventsEvicted: onFC.EventsEvicted,
		Breaches:      onFC.Breaches,
	}
	if off.P50us > 0 {
		cmp.OnP50OverheadPct = (on.P50us - off.P50us) / off.P50us * 100
	}
	if on.Domain != nil {
		cmp.BoundViolations = on.Domain.BoundViolations
	}
	// The p50 overhead is not gated: it is within run-to-run noise.
	var err error
	switch {
	case cmp.BoundViolations != 0:
		err = fmt.Errorf("forensics bench: %d bound violations", cmp.BoundViolations)
	case cmp.Events < on.Requests:
		err = fmt.Errorf("forensics bench: %d flight events for %d served requests", cmp.Events, on.Requests)
	}
	return cmp, err
}
