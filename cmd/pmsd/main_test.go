package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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

// TestFlagErrors pins the first stderr line and exit code 2 of invalid
// invocations.
func TestFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-max-inflight", "0"}, "-max-inflight must be at least 1, got 0"},
		{[]string{"-trace-sample", "2"}, "-trace-sample must be a probability in [0,1], got 2"},
		{[]string{"-log-format", "xml"}, `-log-format must be text or json, got "xml"`},
		{[]string{"-controller", "-no-domain-metrics"}, "-controller needs the domain accounting layer; drop -no-domain-metrics"},
		{[]string{"-slo-error-rate", "101"}, "-slo-error-rate and -slo-tenant-reject are percentages in [0,100]"},
		{[]string{"-chaos-burst", "0"}, "-chaos-burst must be at least 1, got 0"},
		{[]string{"stray"}, "unexpected arguments: [stray]"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			code, _, stderr := runPmsd(t, tc.args...)
			if code != 2 {
				t.Errorf("exit code %d, want 2", code)
			}
			if first, _, _ := strings.Cut(stderr, "\n"); first != tc.want {
				t.Errorf("first stderr line %q, want %q", first, tc.want)
			}
		})
	}
}
