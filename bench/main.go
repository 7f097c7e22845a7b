// Command pmsbench is the repository's benchmark. It builds cmd/pmsd,
// runs it as a child process with its ordinary serve flags, drives it
// from one process over two keep-alive connections in a closed loop,
// checks the answers against an in-process oracle, and reports
// end-to-end metrics — or, traced, per-layer metrics with a time table
// whose rows sum to the end-to-end p50.
//
// One run of one workload, printing its result as the last line:
//
//	bash bench/run.sh --workload point-color --seed 3 --seconds 10 --trace 0
//
// A set, every workload -reps times interleaved round-robin, with the
// median and quartiles of every metric:
//
//	bash bench/run.sh -reps 3 -seconds 20 -out bench/results/run.json
//
// The traced set (layer tables, ablations, spans in -trace-out):
//
//	bash bench/run.sh -trace 1
//
// bench/README.md describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// Every run warms pmsd up for warmup before its window, and launches it
// setups times; setup_s is the median of their set-up times.
const (
	warmup = 3 * time.Second
	setups = 5
)

func main() {
	name := flag.String("workload", "", "run this workload once and print its result as a JSON last line (empty: a set over every workload)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed generates the same requests")
	seconds := flag.Int("seconds", 20, "measured window of one run, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced form: per-layer metrics, layer table, ablations and spans")
	reps := flag.Int("reps", 3, "set: repetitions of every workload, interleaved round-robin")
	out := flag.String("out", "", "set: write every run plus each metric's median and quartiles to this JSON file")
	traceOut := flag.String("trace-out", "", "traced runs: write the recorded spans here as JSON lines (default .bench_build/spans.jsonl in the repository)")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *reps < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "pmsbench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := func() error {
		root, err := repoRoot()
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Join(root, buildDir), 0o755); err != nil {
			return err
		}
		tmp, err := os.MkdirTemp(filepath.Join(root, buildDir), "tmp-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		bin, err := buildPMSD(root)
		if err != nil {
			return err
		}
		e := env{root: root, bin: bin, tmp: tmp}
		if *traceOut == "" {
			*traceOut = filepath.Join(root, buildDir, "spans.jsonl")
		}
		base := runCfg{seed: *seed, window: time.Duration(*seconds) * time.Second, warmup: warmup, setups: setups, traced: *trace == 1}
		h := header(root, base, *reps)
		var results []*result
		defer func() {
			if base.traced && len(results) > 0 {
				recs := make([]*recorder, len(results))
				for i, r := range results {
					recs[i] = r.spans
				}
				if err := writeSpans(*traceOut, recs); err != nil {
					fmt.Fprintln(os.Stderr, "pmsbench: writing spans:", err)
				}
			}
		}()

		if *name != "" {
			w, err := workloadByName(*name)
			if err != nil {
				return err
			}
			cfg := base
			cfg.w = w
			fmt.Println(h)
			res, err := run(ctx, e, cfg)
			if err != nil {
				return err
			}
			results = append(results, res)
			printRun(res, base.traced)
			if err := printLine(os.Stdout, res, base.traced); err != nil {
				return err
			}
			if !res.Correct {
				return errors.New("outputs are not correct")
			}
			return nil
		}

		fmt.Println(h)
		for rep := range *reps {
			for _, w := range workloads {
				cfg := base
				cfg.w = w
				res, err := run(ctx, e, cfg)
				if err != nil {
					return fmt.Errorf("%s rep %d: %w", w.name, rep+1, err)
				}
				results = append(results, res)
				printRun(res, base.traced)
				if !res.Correct {
					return fmt.Errorf("%s rep %d: outputs are not correct", w.name, rep+1)
				}
			}
		}
		s := summarize(results, base.traced)
		printSummary(s, base.traced)
		if *out != "" {
			return writeJSON(*out, struct {
				Header  string                              `json:"header"`
				Runs    []*result                           `json:"runs"`
				Summary map[string]map[string]metricSummary `json:"summary"`
			}{h, results, s})
		}
		return nil
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmsbench:", err)
		os.Exit(1)
	}
}

// repoRoot walks up from the working directory to the checkout holding
// cmd/pmsd, so the benchmark runs from the root or from bench/.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "pmsd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no cmd/pmsd/main.go in the working directory or above it")
		}
		dir = parent
	}
}

// header records what a number depends on: the machine, the toolchain,
// the code and the run settings.
func header(root string, cfg runCfg, reps int) string {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return fmt.Sprintf("pmsbench nproc=%d GOMAXPROCS=%d go=%s commit=%s seed=%d reps=%d window=%s warmup=%s setups=%d conns=%d traced=%v",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, cfg.seed, reps, cfg.window, cfg.warmup, cfg.setups, conns, cfg.traced)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
