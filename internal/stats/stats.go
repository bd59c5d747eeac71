// Package stats provides the small set of summary statistics used by the
// monitors (per-window sum/mean/std over per-second samples) and the
// moving-window smoothing applied to Figure 1's per-operation latencies.
package stats

import "math"

// Sum returns the total of xs (0 for empty input).
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the average of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Std returns the population standard deviation of xs (0 for fewer than two
// samples).
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// MovingAverage smooths xs with a centred window of the given width
// (clamped at the edges). Width < 2 returns a copy.
func MovingAverage(xs []float64, width int) []float64 {
	out := make([]float64, len(xs))
	if width < 2 {
		copy(out, xs)
		return out
	}
	half := width / 2
	for i := range xs {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half + 1
		if hi > len(xs) {
			hi = len(xs)
		}
		out[i] = Mean(xs[lo:hi])
	}
	return out
}
