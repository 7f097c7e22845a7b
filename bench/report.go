package main

import (
	"encoding/json"
	"fmt"
	"io"
)

func metricNames(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

func (res *result) metrics(traced bool) map[string]float64 {
	if traced {
		return res.Layer
	}
	return res.Metrics
}

// printRun prints one run for people: the correctness gate, then every
// metric with its unit, then the traced run's layer table.
func printRun(res *result, traced bool) {
	fmt.Printf("%s seed=%d: verified %d responses, %d mismatches, bound violations %d, model conflicts %d; attempted %d, failed %d (error_pct %.3f); %d latency samples\n",
		res.Workload, res.Seed, res.Verified, res.Mismatches, res.BoundViolations, res.ModelConflicts,
		res.Attempted, res.Failed, res.ErrorPct, res.LatencySamples)
	if res.FirstMismatch != "" {
		fmt.Printf("  first mismatch: %s\n", res.FirstMismatch)
	}
	m := res.metrics(traced)
	for _, d := range metricNames(traced) {
		fmt.Printf("  %-28s %14.4f %s\n", d.name, m[d.name], d.unit)
	}
	if len(res.Layers) == 0 {
		return
	}
	fmt.Printf("  layer table, µs per request:\n")
	sum := 0.0
	for _, r := range res.Layers {
		fmt.Printf("    %-22s %10.2f  %s\n", r.Layer, r.US, r.Source)
		sum += r.US
	}
	fmt.Printf("    %-22s %10.2f  (rows sum %.2f; p50 %.2f, p99 %.2f)\n", "= end-to-end mean", res.MeanUS, sum,
		res.Metrics["latency_p50_us"], res.Metrics["latency_p99_us"])
	fmt.Printf("  whole handler in-process, no TCP: p50 %.2f us\n", res.HandlerP50US)
}

// printLine writes the machine-readable result line; main prints it as
// the last line of standard output.
func printLine(w io.Writer, res *result, traced bool) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]metric)
	m := res.metrics(traced)
	for _, d := range metricNames(traced) {
		ms[d.name] = metric{m[d.name], d.unit}
	}
	data, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}

// metricSummary is one metric's spread over a set's repetitions.
type metricSummary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	IQRPct float64 `json:"iqr_pct"` // (q3 - q1) / median, in percent
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
}

// summarize reduces a set to medians and quartiles per workload and
// metric; error_pct and model_conflicts ride along for the record.
func summarize(results []*result, traced bool) map[string]map[string]metricSummary {
	values := map[string]map[string][]float64{}
	for _, res := range results {
		byMetric := values[res.Workload]
		if byMetric == nil {
			byMetric = map[string][]float64{}
			values[res.Workload] = byMetric
		}
		for k, v := range res.metrics(traced) {
			byMetric[k] = append(byMetric[k], v)
		}
		byMetric["error_pct"] = append(byMetric["error_pct"], res.ErrorPct)
		byMetric["model_conflicts"] = append(byMetric["model_conflicts"], float64(res.ModelConflicts))
	}
	out := map[string]map[string]metricSummary{}
	for w, byMetric := range values {
		out[w] = map[string]metricSummary{}
		for k, vs := range byMetric {
			q1, med, q3 := quartiles(vs)
			unit := unitOf(k)
			switch k {
			case "error_pct":
				unit = "%"
			case "model_conflicts":
				unit = "count"
			}
			out[w][k] = metricSummary{Median: med, Q1: q1, Q3: q3, IQRPct: 100 * ratio(q3-q1, med), Unit: unit, N: len(vs)}
		}
	}
	return out
}

func printSummary(s map[string]map[string]metricSummary, traced bool) {
	fmt.Println("\nsummary: median [q1, q3] and IQR as a share of the median")
	names := []string{"error_pct", "model_conflicts"}
	for _, d := range metricNames(traced) {
		names = append(names, d.name)
	}
	for _, w := range workloads {
		byMetric, ok := s[w.name]
		if !ok {
			continue
		}
		fmt.Printf("%s\n", w.name)
		for _, k := range names {
			ms := byMetric[k]
			fmt.Printf("  %-28s %14.4f [%.4f, %.4f] IQR %5.1f%%  %s\n", k, ms.Median, ms.Q1, ms.Q3, ms.IQRPct, ms.Unit)
		}
	}
}
