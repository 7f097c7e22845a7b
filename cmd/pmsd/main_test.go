package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/flightrec"
	"repro/internal/mapstore"
	"repro/internal/server"
)

var update = flag.Bool("update", false, "rewrite golden files")

// pmsdBin is the real pmsd binary, built once by TestMain. The tests do
// not re-run the test binary as pmsd: its -test.* flags would show up in
// -h.
var pmsdBin string

func TestMain(m *testing.M) { os.Exit(buildAndRun(m)) }

func buildAndRun(m *testing.M) int {
	dir, err := os.MkdirTemp("", "pmsd-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	pmsdBin = filepath.Join(dir, "pmsd")
	build := exec.Command("go", "build", "-o", pmsdBin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building pmsd:", err)
		return 1
	}
	return m.Run()
}

// runPmsd runs the binary with args and returns its exit code, stdout
// and stderr.
func runPmsd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(pmsdBin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.String(), stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stdout.String(), stderr.String()
	}
	t.Fatalf("running pmsd %v: %v", args, err)
	return 0, "", ""
}

// TestHelpGolden pins pmsd -h: every flag's name, default and usage
// string. Regenerate after an intended flag change with:
//
//	go test ./cmd/pmsd -run TestHelpGolden -update
func TestHelpGolden(t *testing.T) {
	code, stdout, stderr := runPmsd(t, "-h")
	if code != 0 {
		t.Fatalf("pmsd -h exited %d", code)
	}
	got := strings.ReplaceAll(stdout+stderr, pmsdBin, "pmsd")
	path := filepath.Join("testdata", "help.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to generate): %v", err)
	}
	if got != string(want) {
		t.Fatalf("pmsd -h differs from %s (run with -update if intended):\n%s", path, got)
	}
}

// TestFlagErrors pins exit code 2 and the first stderr line of one
// invalid invocation per check, in check order. Every case starts with
// -replay of a missing file, so a check that stops firing exits 1 at the
// file open instead of starting a server.
func TestFlagErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.pmstrc")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"stray"}, "unexpected arguments: [stray]"},
		{[]string{"-log-format", "xml"}, `-log-format must be text or json, got "xml"`},
		{[]string{"-workers", "-1"}, "-workers must be non-negative, got -1"},
		{[]string{"-max-inflight", "0"}, "-max-inflight must be at least 1, got 0"},
		{[]string{"-max-batch", "0"}, "-max-batch must be at least 1, got 0"},
		{[]string{"-cache-mb", "0"}, "-cache-mb must be at least 1, got 0"},
		{[]string{"-flush", "-1ms"}, "-flush and -worker-delay must be non-negative"},
		{[]string{"-worker-delay", "-1ms"}, "-flush and -worker-delay must be non-negative"},
		{[]string{"-store-budget", "0"}, "-store-budget must be at least 1 MiB, got 0"},
		{[]string{"-store-ttl", "-1s"}, "-store-ttl must be non-negative"},
		{[]string{"-store-warm", "-1"}, "-store-warm must be non-negative, got -1"},
		{[]string{"-trace-sample", "2"}, "-trace-sample must be a probability in [0,1], got 2"},
		{[]string{"-trace-slowest", "0"}, "-trace-slowest must be at least 1, got 0"},
		{[]string{"-chaos-latency", "1.5"}, "-chaos-latency must be a probability in [0,1], got 1.5"},
		{[]string{"-chaos-error", "-0.1"}, "-chaos-error must be a probability in [0,1], got -0.1"},
		{[]string{"-chaos-rate", "2"}, "-chaos-rate must be a probability in [0,1], got 2"},
		{[]string{"-chaos-reset", "-1"}, "-chaos-reset must be a probability in [0,1], got -1"},
		{[]string{"-chaos-drip", "1.01"}, "-chaos-drip must be a probability in [0,1], got 1.01"},
		{[]string{"-chaos-partial", "3"}, "-chaos-partial must be a probability in [0,1], got 3"},
		{[]string{"-chaos-burst", "0"}, "-chaos-burst must be at least 1, got 0"},
		{[]string{"-slo-window", "-1s"}, "-slo-window, -slo-interval, -slo-p99 and -slo-snapshot-every must be non-negative"},
		{[]string{"-slo-interval", "-1s"}, "-slo-window, -slo-interval, -slo-p99 and -slo-snapshot-every must be non-negative"},
		{[]string{"-slo-p99", "-1ms"}, "-slo-window, -slo-interval, -slo-p99 and -slo-snapshot-every must be non-negative"},
		{[]string{"-slo-snapshot-every", "-1s"}, "-slo-window, -slo-interval, -slo-p99 and -slo-snapshot-every must be non-negative"},
		{[]string{"-slo-error-rate", "101"}, "-slo-error-rate and -slo-tenant-reject are percentages in [0,100]"},
		{[]string{"-slo-tenant-reject", "-1"}, "-slo-error-rate and -slo-tenant-reject are percentages in [0,100]"},
		{[]string{"-slo-max-migrations", "-1"}, "-slo-max-migrations and -slo-min-requests must be non-negative"},
		{[]string{"-slo-min-requests", "-1"}, "-slo-max-migrations and -slo-min-requests must be non-negative"},
		{[]string{"-controller-interval", "0"}, "-controller-interval must be positive, got 0s"},
		{[]string{"-shadow-sample", "1.5"}, "-shadow-sample must be a probability in [0,1], got 1.5"},
		{[]string{"-controller", "-no-domain-metrics"}, "-controller needs the domain accounting layer; drop -no-domain-metrics"},
		{[]string{"-tenant-max-inflight", "-1"}, "-tenant-max-inflight must be non-negative, got -1"},
		{[]string{"-max-tenants", "0"}, "-max-tenants must be at least 1, got 0"},
		// Several bad values: the first check in order reports.
		{[]string{"-max-tenants", "0", "-workers", "-1"}, "-workers must be non-negative, got -1"},
		{[]string{"-workers", "-1", "-log-format", "xml"}, `-log-format must be text or json, got "xml"`},
		// Values faultinject or the SLO rules would otherwise rewrite.
		{[]string{"-chaos-latency-min", "100ms"}, "-chaos-latency-max must be at least -chaos-latency-min (100ms), got 50ms"},
		{[]string{"-chaos-latency-min", "-5ms"}, "-chaos-latency-min must be positive, got -5ms"},
		{[]string{"-chaos-latency-min", "0"}, "-chaos-latency-min must be positive, got 0s"},
		{[]string{"-chaos-latency-max", "-1s"}, "-chaos-latency-max must be at least -chaos-latency-min (10ms), got -1s"},
		{[]string{"-slo-p99", "500ns"}, "-slo-p99 must be 0 or at least 1µs, got 500ns"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			code, _, stderr := runPmsd(t, append([]string{"-replay", missing}, tc.args...)...)
			if code != 2 {
				t.Errorf("exit code %d, want 2", code)
			}
			if first, _, _ := strings.Cut(stderr, "\n"); first != tc.want {
				t.Errorf("first stderr line %q, want %q", first, tc.want)
			}
		})
	}
}

// TestReplayWorstWindow runs the real binary past flag parsing: pmsd
// -replay of the checked-in worst-window trace must print the digest an
// in-process replay gives and pass every bound check. With pmsbench's
// four ablation flags the digest stays and the bound monitor is off,
// which shows -no-domain-metrics reaches the server.
func TestReplayWorstWindow(t *testing.T) {
	path := filepath.Join("..", "..", "internal", "server", "testdata", "worst_window.pmstrc")
	want, _, _, err := server.ReplayFile(server.Config{}, path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		flags  []string
		checks string
	}{
		{"defaults", nil, "bound checks 12, violations 0"},
		{"ablations", []string{"-no-flightrec", "-trace-sample", "0", "-no-domain-metrics", "-flush", "0"}, "bound checks 0, violations 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runPmsd(t, append(tc.flags, "-replay", path)...)
			if code != 0 {
				t.Fatalf("exit code %d, want 0; stderr:\n%s", code, stderr)
			}
			for _, line := range []string{"replayed 60 requests", "status 200: 60", "digest: " + want.Digest, tc.checks} {
				if !strings.Contains(stdout, line) {
					t.Errorf("stdout lacks %q:\n%s", line, stdout)
				}
			}
		})
	}
}

// TestParse pins where every flag lands: each command line's settings
// are written out by hand, unit conversions included, and together the
// command lines set every flag in help.golden to a non-default value.
func TestParse(t *testing.T) {
	defaults := func() settings {
		return settings{
			cfg: server.Config{
				Addr: "127.0.0.1:8080", MaxInflight: 256, MaxBatch: 64, CacheBudgetBytes: 256 << 20,
				TraceSampleRate: 1, TraceSlowest: 32, MaxTenants: 64,
				ControllerInterval: 2 * time.Second, ShadowSampleRate: 0.25,
			},
			chaosCfg: faultinject.Config{
				Seed: 1, LatencyProb: 0.1, LatencyMin: 10 * time.Millisecond, LatencyMax: 50 * time.Millisecond, BurstLen: 8,
			},
			store:     mapstore.Options{BudgetBytes: 1024 << 20},
			storeWarm: 64, seed: 1, logFormat: "text",
		}
	}
	// -controller and -no-domain-metrics exclude each other, and -flush 0
	// overrides -max-batch, so the zero-valued cases get a line of their
	// own: every flag pmsbench launches pmsd with, plus -shadow-sample 0.
	bench := defaults()
	bench.cfg.Addr = "127.0.0.1:0"
	bench.cfg.CacheBudgetBytes = 4 << 20
	bench.store.Dir = "bench-store"
	bench.cfg.DisableFlightRec = true
	bench.cfg.TraceSampleRate = -1
	bench.cfg.DisableDomainMetrics = true
	bench.cfg.MaxBatch = 1
	bench.cfg.ShadowSampleRate = -1
	cases := []struct {
		args []string
		want settings
	}{
		{nil, defaults()},
		{[]string{
			"-addr", "127.0.0.1:0", "-cache-mb", "4", "-store-dir", "bench-store",
			"-no-flightrec", "-trace-sample", "0", "-no-domain-metrics", "-flush", "0", "-shadow-sample", "0",
		}, bench},
		{[]string{
			"-addr", ":9090", "-workers", "3", "-max-inflight", "100", "-flush", "1ms", "-max-batch", "16",
			"-cache-mb", "8", "-worker-delay", "2ms", "-trace-sample", "0.5", "-trace-slowest", "7", "-seed", "42",
			"-controller", "-controller-interval", "3s", "-shadow-sample", "0.75",
			"-store-dir", "store", "-store-budget", "2", "-store-ttl", "1h", "-store-warm", "5",
			"-chaos", "-chaos-seed", "9", "-chaos-latency", "0.2", "-chaos-latency-min", "20ms", "-chaos-latency-max", "30ms",
			"-chaos-error", "0.3", "-chaos-rate", "0.4", "-chaos-burst", "6", "-chaos-reset", "0.05",
			"-chaos-drip", "0.06", "-chaos-partial", "0.07",
			"-log-format", "json", "-no-flightrec", "-flightrec-dir", "inc",
			"-slo-window", "5s", "-slo-interval", "250ms", "-slo-p99", "5ms", "-slo-error-rate", "2.5",
			"-slo-tenant-reject", "40", "-slo-max-migrations", "3", "-slo-min-requests", "11", "-slo-snapshot-every", "1m",
			"-record", "run.pmstrc", "-replay", "old.pmstrc", "-tenant-max-inflight", "10", "-max-tenants", "12",
		}, settings{
			cfg: server.Config{
				Addr: ":9090", Workers: 3, MaxInflight: 100, MaxBatch: 16, CacheBudgetBytes: 8 << 20,
				WorkerDelay: 2 * time.Millisecond, TraceSampleRate: 0.5, TraceSlowest: 7,
				TenantMaxInflight: 10, MaxTenants: 12,
				Controller: true, ControllerInterval: 3 * time.Second, ShadowSampleRate: 0.75,
				DisableFlightRec: true, FlightRecDir: "inc",
				SLO: flightrec.SLOConfig{
					Window: 5 * time.Second, Interval: 250 * time.Millisecond, MinRequests: 11,
					P99TargetUS: 5000, ErrorRatePct: 2.5, TenantRejectSharePct: 40, MaxMigrations: 3,
					SnapshotMinInterval: time.Minute,
				},
			},
			chaos: true,
			chaosCfg: faultinject.Config{
				Seed: 9, LatencyProb: 0.2, LatencyMin: 20 * time.Millisecond, LatencyMax: 30 * time.Millisecond,
				ErrorProb: 0.3, RateLimitProb: 0.4, BurstLen: 6, ResetProb: 0.05, DripProb: 0.06, PartialProb: 0.07,
			},
			store:     mapstore.Options{Dir: "store", BudgetBytes: 2 << 20, TTL: time.Hour},
			storeWarm: 5, seed: 42, logFormat: "json", record: "run.pmstrc", replay: "old.pmstrc",
		}},
	}
	set := map[string]bool{}
	for _, tc := range cases {
		for _, a := range tc.args {
			set[a] = true
		}
		if got := parse(tc.args); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parse(%q):\n got %+v\nwant %+v", tc.args, got, tc.want)
		}
	}

	golden, err := os.ReadFile(filepath.Join("testdata", "help.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(golden), "\n") {
		if !strings.HasPrefix(line, "  -") {
			continue
		}
		if name, _, _ := strings.Cut(line[2:], " "); !set[name] {
			t.Errorf("no command line sets %s", name)
		}
	}
}
