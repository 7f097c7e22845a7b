package main

import (
	"math"
	"sort"
	"time"

	dm "repro/internal/metrics"
)

// percentileUS is the nearest-rank percentile of sorted latencies, in µs
// with the nanoseconds kept (report.PercentileUS truncates to whole µs).
func percentileUS(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	i = max(0, min(i, len(sorted)-1))
	return float64(sorted[i].Nanoseconds()) / 1e3
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) computes them (the
// default "exclusive" method), so the spreads printed here are the ones
// a harness computing them from the printed values sees.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// hist is a delta of one of pmsd's histograms. Only the exact count and
// sum are kept: the power-of-two buckets resolve a factor of two.
type hist struct{ count, sum float64 }

func histFrom(sc *dm.Scrape, name string, labels ...dm.Label) hist {
	var h hist
	h.count, _ = sc.Value(name+"_count", labels...)
	h.sum, _ = sc.Value(name+"_sum", labels...)
	return h
}

func (h hist) minus(o hist) hist { return hist{h.count - o.count, h.sum - o.sum} }

func (h hist) mean() float64 { return ratio(h.sum, h.count) }
