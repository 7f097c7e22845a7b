// Latency quantiles over sorted durations. pmsbench (bench/) sorts its
// samples with SortDurations; PercentileUS is the lower nearest-rank
// estimator the BENCH_prN.json snapshots were read with.
package report

import (
	"sort"
	"time"
)

// PercentileUS reads the p-th percentile (0..100) from latencies sorted
// ascending, in microseconds. The estimator is the lower nearest-rank on
// the (len-1)-scaled index — exact order statistics, no interpolation —
// so p=0 is the minimum and p=100 the maximum. p is clamped to [0,100];
// an empty slice reads 0.
func PercentileUS(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	idx := int(p / 100 * float64(len(sorted)-1))
	return float64(sorted[idx].Microseconds())
}

// SortDurations sorts latencies ascending in place, readying them for
// PercentileUS.
func SortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}
