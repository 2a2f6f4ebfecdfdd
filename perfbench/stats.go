package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail percentile:
// a tail read from fewer samples is one outlier, not a percentile.
const minBeyond = 10

// dist describes a sample set in the record: its count, median and
// quartiles.
type dist struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the three cut points of xs by the "exclusive" method of
// Python's statistics.quantiles(xs, n=4), the method the benchmark's spread
// checks use. One sample is its own quartiles; none gives zeros.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func describe(xs []float64) dist {
	q1, q2, q3 := quartiles(xs)
	return dist{N: len(xs), Median: q2, Q1: q1, Q3: q3}
}

// tail returns the highest whole percentile p ≤ 99 of xs that has at least
// minBeyond samples beyond it, by the nearest-rank definition, with its
// value. With too few samples for any percentile from 50 up, ok is false
// and the median is returned as p50.
func tail(xs []float64) (p int, v float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	for p = 99; p >= 50; p-- {
		rank := (p*n + 99) / 100 // ⌈p·n/100⌉, 1-based
		if rank >= 1 && n-rank >= minBeyond {
			return p, s[rank-1], true
		}
	}
	return 50, median(xs), false
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) {
		return 0
	}
	return a / b
}

// medianOf is the median of xs as a metric in unit.
func medianOf(xs []float64, unit string) measured {
	return measured{Value: median(xs), Unit: unit, Samples: xs}
}

// windowTailOf is the median, over windows of consecutive samples, of each
// window's tail percentile, as a metric in unit. A stall that slows one
// window — a descheduled vCPU, a neighbour's burst — moves one input of the
// median instead of the whole run's percentile.
func windowTailOf(windows [][]float64, unit string) measured {
	var tails []float64
	p, n := 0, 0
	for _, xs := range windows {
		q, v, ok := tail(xs)
		if !ok {
			continue
		}
		tails, p, n = append(tails, v), q, n+len(xs)
	}
	return measured{Value: median(tails), Unit: unit, Samples: tails,
		Note: fmt.Sprintf("median of %d windows' p%d, %d samples", len(tails), p, n)}
}

// tailOf is the tail percentile of xs as a metric in unit, noting which
// percentile of how many samples it is.
func tailOf(xs []float64, unit string) measured {
	p, v, ok := tail(xs)
	note := fmt.Sprintf("p%d of %d samples", p, len(xs))
	if !ok {
		note += ", too few for a tail"
	}
	return measured{Value: v, Unit: unit, Samples: xs, Note: note}
}
