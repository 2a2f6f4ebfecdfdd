package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helpers must sort
	}
	return xs
}

// TestTailKeepsTenSamplesBeyond checks the tail percentile: p99 once a
// thousand samples leave ten beyond it, and the highest percentile that
// still does below that.
func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		wantP int
		ok    bool
	}{
		{1000, 99, true},
		{999, 98, true},
		{100, 90, true},
		{30, 66, true},
		{20, 50, true},
		{19, 50, false},
	} {
		p, v, ok := tail(seq(tc.n))
		if p != tc.wantP || ok != tc.ok {
			t.Errorf("n=%d: got p%d ok=%v, want p%d ok=%v", tc.n, p, ok, tc.wantP, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		// Values are 1..n, so the value is its own rank; at least ten
		// samples must lie strictly beyond it.
		if beyond := tc.n - int(v); beyond < minBeyond {
			t.Errorf("n=%d: p%d = %v leaves %d samples beyond, want >= %d", tc.n, p, v, beyond, minBeyond)
		}
		if rank := int(math.Ceil(float64(p*tc.n) / 100)); float64(rank) != v {
			t.Errorf("n=%d: p%d = %v, want nearest rank %d", tc.n, p, v, rank)
		}
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(xs, n=4), the method the spread checks use.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5}, [3]float64{5, 5, 5}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestWindowTailIsMedianOfWindows checks that one slow window moves the
// windowed tail no further than the median of the windows' p99s allows.
func TestWindowTailIsMedianOfWindows(t *testing.T) {
	var windows [][]float64
	for w := 0; w < 5; w++ {
		xs := seq(1000)
		if w == 0 {
			for i := range xs {
				xs[i] *= 100 // a stalled window
			}
		}
		windows = append(windows, xs)
	}
	windows = append(windows, seq(5)) // too few samples for a tail: skipped
	m := windowTailOf(windows, "ms")
	if m.Value != 990 || len(m.Samples) != 5 {
		t.Errorf("windowed tail = %v over %d windows, want 990 over 5", m.Value, len(m.Samples))
	}
}
