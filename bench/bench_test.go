package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// benchmarkFile is BENCHMARK.json as the harness reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
		delete(keys, k)
	}
	for k := range keys {
		t.Errorf("BENCHMARK.json has unexpected key %q", k)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkJSON holds BENCHMARK.json to the harness's limits and to
// the metrics and workloads this program prints.
func TestBenchmarkJSON(t *testing.T) {
	bf := readBenchmarkFile(t)
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1,60]", bf.RunSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %q, want [bench]", bf.Paths)
	}
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}

	if n := len(bf.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program; want the same, 2 to 8", n, len(workloads))
	}
	for i, w := range bf.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q (%q), the program has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}

	if n := len(bf.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program; want the same, 1 to 16", n, len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range bf.EndToEnd {
		checkName(m.Name)
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d is %+v, the program has %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %s", m.Name, m.Unit, unitRE)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	if !seen["setup_s"] {
		t.Error("no setup_s end-to-end metric")
	}
	for _, m := range bf.EndToEnd {
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower" || m.Bound != maxBound) {
			t.Errorf("setup_s is %+v; want unit s, lower, the largest bound %g", m, maxBound)
		}
	}

	if n := len(bf.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program; want the same, 1 to 128", n, len(perLayer))
	}
	e2e := map[string]bool{}
	for _, d := range endToEnd {
		e2e[d.name] = true
	}
	for i, m := range bf.PerLayer {
		checkName(m.Name)
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d is %+v, the program has %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %s", m.Name, m.Unit, unitRE)
		}
		if !e2e[d.moves] {
			t.Errorf("%s: should move %q, which is no end-to-end metric", d.name, d.moves)
		}
		if _, err := workloadByName(d.on); err != nil && d.on != "all" {
			t.Errorf("%s: should move %s on %q, which is no workload", d.name, d.moves, d.on)
		}
	}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("%s: better is %q", m.name, m.better)
		}
	}
}

// TestSmoke runs every workload for about a second, untraced, and one
// traced run, and checks that every metric of BENCHMARK.json is printed
// with its unit and that nothing failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs pmsd")
	}
	bf := readBenchmarkFile(t)
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildPMSD(root)
	if err != nil {
		t.Fatal(err)
	}
	e := env{root: root, bin: bin, tmp: t.TempDir()}
	ctx := context.Background()
	check := func(res *result, traced bool, want map[string]string) {
		t.Helper()
		if !res.Correct || res.Failed != 0 || res.ErrorPct != 0 {
			t.Errorf("%s: correct %v, failed %d, error_pct %g, first mismatch %q", res.Workload, res.Correct, res.Failed, res.ErrorPct, res.FirstMismatch)
		}
		var buf bytes.Buffer
		if err := printLine(&buf, res, traced); err != nil {
			t.Fatal(err)
		}
		var line struct {
			Correct   bool  `json:"correct"`
			Attempted int64 `json:"attempted"`
			Failed    int64 `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(&buf)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("%s: result line: %v", res.Workload, err)
		}
		if line.Attempted < 1 || len(line.Metrics) != len(want) {
			t.Errorf("%s: attempted %d, %d metrics, want %d", res.Workload, line.Attempted, len(line.Metrics), len(want))
		}
		for name, unit := range want {
			m, ok := line.Metrics[name]
			if !ok || m.Value == nil || m.Unit != unit {
				t.Errorf("%s: metric %s printed as %+v, want a value in %s", res.Workload, name, m, unit)
			}
		}
	}
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		layer[m.Name] = m.Unit
	}
	for _, w := range workloads {
		res, err := run(ctx, e, runCfg{w: w, seed: 1, window: time.Second, warmup: 200 * time.Millisecond, setups: 1})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		check(res, false, e2e)
		for name, v := range res.Metrics {
			if v <= 0 {
				t.Errorf("%s: %s = %g, want > 0", w.name, name, v)
			}
		}
	}
	w, _ := workloadByName("template-mix")
	res, err := run(ctx, e, runCfg{w: w, seed: 1, window: time.Second, warmup: 200 * time.Millisecond, setups: 1, traced: true})
	if err != nil {
		t.Fatalf("traced: %v", err)
	}
	check(res, true, layer)
	sum := 0.0
	for _, r := range res.Layers {
		sum += r.US
	}
	if diff := sum - res.MeanUS; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("layer rows sum to %g, end-to-end mean is %g", sum, res.MeanUS)
	}
	if path := filepath.Join(e.tmp, "spans.jsonl"); writeSpans(path, []*recorder{res.spans}) != nil {
		t.Error("writing spans failed")
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4),
// which the harness uses on the printed values.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	} {
		q1, m, q3 := quartiles(c.in)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g, %g; want %g, %g, %g", c.in, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}
