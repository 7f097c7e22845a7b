// End-to-end forensics loop: chaos-injected 5xx storm → SLO watchdog
// breach → incident snapshot on disk → ReplayIncident re-drives the
// bundled window against fresh servers and reproduces the breach
// deterministically. This is the acceptance loop of the flight
// recorder, exercised entirely in-process.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/flightrec"
	"repro/internal/replay"
	"repro/internal/testutil"
)

var updateFixtures = flag.Bool("update-fixtures", false, "recapture testdata replay fixtures")

// captureBreachIncident boots a server with chaos middleware and a
// tight error-rate SLO, drives a sequential storm of /v1/color POSTs
// through the full middleware chain, ticks the watchdog, and returns
// the incident it wrote.
func captureBreachIncident(t *testing.T, dir string) *flightrec.Incident {
	t.Helper()
	chaosCfg := faultinject.Config{Seed: 7, ErrorProb: 0.5, BurstLen: 4}
	ccJSON, err := json.Marshal(chaosCfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Middleware:    faultinject.New(chaosCfg).Middleware,
		FlightRecDir:  dir,
		FlightRecMeta: map[string]string{ChaosConfigMetaKey: string(ccJSON)},
		SLO: flightrec.SLOConfig{
			Window:       time.Minute,
			MinRequests:  10,
			ErrorRatePct: 5,
		},
		// Coalescing off and sequential traffic so the live chaos indexes
		// line up one-to-one with the recorded window.
		MaxBatch: 1,
	}
	cfg.flightManual = true
	srv := New(cfg)
	ts := httptest.NewServer(srv.httpSrv.Handler)
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}()

	spec := MappingSpec{Alg: "color", Levels: 12, M: 4}
	tenants := []string{"alpha", "beta", "gamma"}
	errors5xx := 0
	for i := 0; i < 60; i++ {
		// Mostly color lookups with template-cost queries interleaved so
		// the captured window also exercises the theorem-bound monitor.
		path := "/v1/color"
		var body []byte
		var err error
		if i%5 == 4 {
			path = "/v1/template-cost"
			body, err = json.Marshal(TemplateCostRequest{
				Mapping: spec, Kind: "P", Size: 4,
				Anchor: &NodeRef{Index: int64(i % 256), Level: 8},
			})
		} else {
			lvl := i % 12
			body, err = json.Marshal(ColorRequest{Mapping: spec, Nodes: []NodeRef{{Index: int64(i % (1 << lvl)), Level: lvl}}})
		}
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(TenantHeader, tenants[i%len(tenants)])
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode >= 500 {
			errors5xx++
		}
	}
	if errors5xx == 0 {
		t.Fatal("chaos injected no 5xx; the breach cannot fire")
	}

	fired := srv.FlightTick(time.Now())
	if len(fired) == 0 {
		t.Fatalf("watchdog fired nothing over a %d/60 5xx storm", errors5xx)
	}
	sawErrorRate := false
	for _, b := range fired {
		if b.Rule == flightrec.RuleErrorRate {
			sawErrorRate = true
		}
	}
	if !sawErrorRate {
		t.Fatalf("fired %v, want error_rate among them", fired)
	}

	paths, err := filepath.Glob(filepath.Join(dir, "*.pmsinc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("%d incident files on disk, want 1", len(paths))
	}
	inc, err := flightrec.ReadIncident(paths[0])
	if err != nil {
		t.Fatalf("watchdog wrote an unreadable incident: %v", err)
	}
	return inc
}

func TestForensicsBreachIncidentReplayLoop(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	inc := captureBreachIncident(t, t.TempDir())

	if inc.Trace == nil || len(inc.Trace.Records) != 60 {
		t.Fatalf("incident bundles %d trace records, want the full 60-request window", len(inc.Trace.Records))
	}
	if len(inc.Events) != 60 {
		t.Fatalf("incident bundles %d events, want 60", len(inc.Events))
	}
	// One capture per request: the traffic is sequential, so the journal
	// and the replay window name the same requests index for index.
	for i, rec := range inc.Trace.Records {
		ev := inc.Events[i]
		if endpointForPath(rec.Path) != ev.Endpoint || sanitizeTenant(rec.Tenant) != ev.Tenant {
			t.Fatalf("trace record %d (%s, tenant %q) does not match event %d (%s, tenant %q)",
				i, rec.Path, rec.Tenant, i, ev.Endpoint, ev.Tenant)
		}
	}
	// Identity fields survive into the journal: tenants and the mapping
	// actually served.
	tenants := map[string]bool{}
	for _, ev := range inc.Events {
		tenants[ev.Tenant] = true
		if ev.Status < 500 && ev.Effective == "" {
			t.Fatalf("served event lost its effective mapping: %+v", ev)
		}
	}
	for _, tn := range []string{"alpha", "beta", "gamma"} {
		if !tenants[tn] {
			t.Errorf("tenant %s missing from the event journal", tn)
		}
	}

	verdict, err := ReplayIncident(Config{}, inc)
	if err != nil {
		t.Fatal(err)
	}
	if !verdict.ChaosApplied {
		t.Error("replay did not rebuild the recorded chaos schedule")
	}
	if !verdict.Deterministic {
		t.Errorf("replay digests diverged: %s vs %s", verdict.Digest, verdict.DigestRerun)
	}
	if verdict.BoundViolations != 0 {
		t.Errorf("replay saw %d bound violations, want 0", verdict.BoundViolations)
	}
	refired := false
	for _, rule := range verdict.ReplayRules {
		if rule == flightrec.RuleErrorRate {
			refired = true
		}
	}
	if !refired {
		t.Errorf("replay rules %v do not refire error_rate", verdict.ReplayRules)
	}
	if !verdict.Reproduced {
		t.Errorf("incident did not reproduce: %+v", verdict)
	}
}

// TestWorstWindowFixtureReplay replays the checked-in worst-window
// PMSTRC1 capture (the breach window of a chaos-induced error storm)
// and holds the determinism contract: bit-identical digests across
// replays and zero theorem-bound violations. Recapture with
// `go test ./internal/server -run TestWorstWindowFixtureReplay -update-fixtures`.
func TestWorstWindowFixtureReplay(t *testing.T) {
	const fixture = "testdata/worst_window.pmstrc"
	if *updateFixtures {
		inc := captureBreachIncident(t, t.TempDir())
		if err := inc.Trace.Save(fixture); err != nil {
			t.Fatal(err)
		}
		t.Logf("recaptured %s (%d records)", fixture, len(inc.Trace.Records))
	}
	tr, err := replay.Load(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) == 0 {
		t.Fatal("fixture is empty")
	}
	first, checks1, viol1, _, err := replayOnce(Config{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	second, checks2, viol2, _, err := replayOnce(Config{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if first.Digest != second.Digest {
		t.Errorf("fixture replay digests diverged: %s vs %s", first.Digest, second.Digest)
	}
	if first.Requests != len(tr.Records) {
		t.Errorf("replayed %d of %d fixture records", first.Requests, len(tr.Records))
	}
	if viol1+viol2 != 0 {
		t.Errorf("fixture replay saw %d bound violations, want 0", viol1+viol2)
	}
	if checks1 != checks2 {
		t.Errorf("bound checks diverged across replays: %d vs %d", checks1, checks2)
	}
	if checks1 == 0 {
		t.Error("fixture exercised no bound checks; the monitor was off")
	}
}

// TestDebugSnapshotEndpoint: GET /debug/snapshot serves a decodable
// manual incident of the live rings.
func TestDebugSnapshotEndpoint(t *testing.T) {
	srv := New(Config{MaxBatch: 1})
	ts := httptest.NewServer(srv.httpSrv.Handler)
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}()

	spec := MappingSpec{Alg: "color", Levels: 10, M: 4}
	for i := 0; i < 5; i++ {
		var out ColorResponse
		lvl := i % 10
		if status := post(t, ts.Client(), ts.URL+"/v1/color", ColorRequest{Mapping: spec, Nodes: []NodeRef{{Index: int64(i % (1 << lvl)), Level: lvl}}}, &out); status != http.StatusOK {
			t.Fatalf("color request %d: status %d", i, status)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/debug/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/snapshot status %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	inc, err := flightrec.DecodeIncident(buf.Bytes())
	if err != nil {
		t.Fatalf("snapshot endpoint served an undecodable incident: %v", err)
	}
	if inc.Meta.Reason != "manual" {
		t.Errorf("snapshot reason %q, want manual", inc.Meta.Reason)
	}
	if len(inc.Events) != 5 {
		t.Errorf("snapshot bundles %d events, want 5", len(inc.Events))
	}
	if inc.Trace == nil || len(inc.Trace.Records) != 5 {
		t.Errorf("snapshot bundles no replay window")
	}
}

// TestFlightRecDisabled: -no-flightrec leaves no recorder, a 404 on
// the snapshot endpoint, and an untouched serving path.
func TestFlightRecDisabled(t *testing.T) {
	srv := New(Config{DisableFlightRec: true, MaxBatch: 1})
	ts := httptest.NewServer(srv.httpSrv.Handler)
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}()
	if srv.fr != nil {
		t.Fatal("DisableFlightRec left a live recorder")
	}
	spec := MappingSpec{Alg: "color", Levels: 10, M: 4}
	var out ColorResponse
	if status := post(t, ts.Client(), ts.URL+"/v1/color", ColorRequest{Mapping: spec, Node: &NodeRef{Index: 1, Level: 3}}, &out); status != http.StatusOK {
		t.Fatalf("serving path broken with recorder off: status %d", status)
	}
	resp, err := ts.Client().Get(ts.URL + "/debug/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/snapshot with recorder off: status %d, want 404", resp.StatusCode)
	}
	if fmt.Sprint(srv.FlightTick(time.Now())) != "[]" {
		t.Error("FlightTick with recorder off returned breaches")
	}
}

// colorBody is a valid singleton /v1/color request body, distinct per i.
func colorBody(t *testing.T, i int) []byte {
	t.Helper()
	body, err := json.Marshal(ColorRequest{
		Mapping: MappingSpec{Alg: "color", Levels: 10, M: 4},
		Node:    &NodeRef{Index: int64(i % 8), Level: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestTapeRecordsWithFlightRecOff: a tape alone installs the capture
// point. Every /v1 POST lands on it in arrival order with its tenant
// and body, under the tape's seed; GETs and non-/v1 routes do not.
func TestTapeRecordsWithFlightRecOff(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	tape := replay.NewTape(7)
	srv := New(Config{DisableFlightRec: true, Tape: tape, MaxBatch: 1})
	ts := httptest.NewServer(srv.httpSrv.Handler)
	defer func() {
		ts.Close()
		shutdownServer(t, srv)
	}()
	if srv.fr != nil {
		t.Fatal("DisableFlightRec left a live recorder")
	}
	for _, path := range []string{"/healthz", "/v1/color"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	var want []replay.Record
	for i := 0; i < 5; i++ {
		rec := replay.Record{Path: "/v1/color", Tenant: fmt.Sprintf("t%d", i%2), Body: colorBody(t, i)}
		want = append(want, rec)
		req, err := http.NewRequest(http.MethodPost, ts.URL+rec.Path, bytes.NewReader(rec.Body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(TenantHeader, rec.Tenant)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		// A 200 proves the handler got the body back after capture.
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	tr, dropped := tape.Trace()
	if tr.Seed != 7 || dropped != 0 {
		t.Fatalf("tape seed %d dropped %d, want 7 and 0", tr.Seed, dropped)
	}
	if len(tr.Records) != len(want) {
		t.Fatalf("tape holds %d records, want %d", len(tr.Records), len(want))
	}
	for i, rec := range tr.Records {
		if rec.Path != want[i].Path || rec.Tenant != want[i].Tenant || !bytes.Equal(rec.Body, want[i].Body) {
			t.Errorf("tape record %d = %s %q %s, want %s %q %s",
				i, rec.Path, rec.Tenant, rec.Body, want[i].Path, want[i].Tenant, want[i].Body)
		}
	}
}

// TestCaptureOversizedBody: a body over MaxBodyBytes is still served
// (413) and journaled as a flight event, but it is not replayable: no
// trace record, and one tape drop.
func TestCaptureOversizedBody(t *testing.T) {
	tape := replay.NewTape(1)
	small := colorBody(t, 1)
	srv := New(Config{Tape: tape, MaxBodyBytes: int64(len(small)), MaxBatch: 1})
	defer shutdownServer(t, srv)
	big := append(bytes.Repeat([]byte(" "), len(small)), small...)
	for _, body := range [][]byte{small, big} {
		rr := httptest.NewRecorder()
		srv.httpSrv.Handler.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/color", bytes.NewReader(body)))
		if want := map[bool]int{true: http.StatusOK, false: http.StatusRequestEntityTooLarge}[len(body) == len(small)]; rr.Code != want {
			t.Fatalf("%d-byte body: status %d, want %d", len(body), rr.Code, want)
		}
	}
	inc := srv.fr.Freeze(time.Now(), "manual", nil)
	if len(inc.Events) != 2 || inc.Events[1].Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("journal %+v, want both requests with the oversized one answered 413", inc.Events)
	}
	if len(inc.Trace.Records) != 1 || !bytes.Equal(inc.Trace.Records[0].Body, small) {
		t.Fatalf("window holds %d records, want only the small body", len(inc.Trace.Records))
	}
	tr, dropped := tape.Trace()
	if len(tr.Records) != 1 || dropped != 1 {
		t.Fatalf("tape holds %d records with %d dropped, want 1 and 1", len(tr.Records), dropped)
	}
}

// TestCaptureRingHammer drives 16 concurrent writers through the capture
// point with a tiny captures ring while a reader freezes incidents, then
// checks the books: every offered request is either live in the ring or
// counted as evicted, every frozen window matches its journal, and the
// unbounded tape holds every POST. Run under -race this is the capture
// path's race check.
func TestCaptureRingHammer(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	tape := replay.NewTape(1)
	cfg := Config{Tape: tape, MaxBatch: 1}
	cfg.flightManual = true
	cfg.flightEvents = 8
	srv := New(cfg)
	defer shutdownServer(t, srv)

	const writers, perWriter = 16, 50
	bodies := make([][]byte, 8)
	for i := range bodies {
		bodies[i] = colorBody(t, i)
	}
	stop := make(chan struct{})
	frozen := make(chan struct{})
	go func() {
		defer close(frozen)
		for {
			select {
			case <-stop:
				return
			default:
			}
			inc := srv.fr.Freeze(time.Now(), "manual", nil)
			if len(inc.Trace.Records) != len(inc.Events) {
				t.Errorf("frozen window has %d records for %d events", len(inc.Trace.Records), len(inc.Events))
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				req := httptest.NewRequest(http.MethodPost, "/v1/color", bytes.NewReader(bodies[(w+i)%len(bodies)]))
				req.Header.Set(TenantHeader, fmt.Sprintf("w%d", w))
				srv.httpSrv.Handler.ServeHTTP(httptest.NewRecorder(), req)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-frozen

	const offered = writers * perWriter
	c := srv.fr.Counters()
	live := len(srv.fr.EventsSnapshot())
	if c.Events != offered || c.EventsEvicted+int64(live) != offered {
		t.Fatalf("events %d, evicted %d + live %d, want %d offered", c.Events, c.EventsEvicted, live, offered)
	}
	tr, dropped := tape.Trace()
	if len(tr.Records) != offered || dropped != 0 {
		t.Fatalf("tape holds %d records with %d dropped, want all %d", len(tr.Records), dropped, offered)
	}
	perTenant := map[string]int{}
	for _, rec := range tr.Records {
		perTenant[rec.Tenant]++
	}
	for w := 0; w < writers; w++ {
		if n := perTenant[fmt.Sprintf("w%d", w)]; n != perWriter {
			t.Errorf("tape holds %d records of writer %d, want %d", n, w, perWriter)
		}
	}
}
