package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (q in [0,1]) of xs: the
// smallest value with at least q·n values at or below it. It sorts xs in
// place and returns 0 for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	idx := int(math.Ceil(q*float64(len(xs)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(xs) {
		idx = len(xs) - 1
	}
	return xs[idx]
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), sorting xs in place; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio returns num/den, or 0 when den is 0 (a layer the workload never
// reached).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// durations collects latency samples and reports them in a chosen unit.
type durations []time.Duration

// pct returns the q-quantile in units of unit (e.g. time.Millisecond).
func (d durations) pct(q float64, unit time.Duration) float64 {
	xs := make([]float64, len(d))
	for i, v := range d {
		xs[i] = float64(v) / float64(unit)
	}
	return percentile(xs, q)
}
