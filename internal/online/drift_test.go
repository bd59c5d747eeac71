package online

import (
	"math"
	"testing"

	"quanterference/internal/dataset"
	"quanterference/internal/monitor/window"
)

// TestDetectorVarianceLargeOffset is the regression test for the
// catastrophic-cancellation bug in the streaming variance: with the old
// single-pass sumSq/n - mean^2 formula, features sitting on a large offset
// (byte/op counters around 1e9) square to ~1e18, where one float64 ulp is
// 128 — so a true variance of 16 computed as exactly 0 and the
// variance-ratio signal never fired. The construction below is exact in
// float64: values 1e9±4 square to 1e18±8e9 precisely (the +16 term is below
// the ulp and rounds away), so the old formula's sumSq/n and mean² are both
// exactly 1e18 while the Welford moments recover the true variance.
func TestDetectorVarianceLargeOffset(t *testing.T) {
	ref := &dataset.Scaler{Mean: []float64{1e9}, Std: []float64{0.5}}
	d := NewDetector(ref, 0, DriftConfig{})

	// Balanced ±4 pairs: stream mean is exactly the reference mean (the
	// mean-shift signal stays quiet), true variance is exactly 16 — a 64x
	// ratio over the reference variance 0.25, far past the default 16x trip.
	for w := 0; w < 8; w++ {
		d.ObserveWindow(window.Matrix{{1e9 + 4}, {1e9 - 4}})
	}

	s := d.Score()
	// The running mean re-centres on 1e9 up to Welford's rounding (~ulp(1e9)
	// per step); anything near the 0.75 effect gate would be a real bug.
	if s.MaxEffect > 1e-5 {
		t.Fatalf("mean drifted (effect %g); construction keeps the mean balanced", s.MaxEffect)
	}
	if !s.Drifted || s.Reason != "features" {
		t.Fatalf("variance-ratio signal did not trip: drifted=%v reason=%q frac=%g "+
			"(catastrophic cancellation regression)", s.Drifted, s.Reason, s.FeatureFrac)
	}
}

// TestDetectorVarianceMatchesDirect pins the streaming variance against a
// direct two-pass computation on ordinary-scale data: these values have
// population variance exactly 116/16 = 7.25 around a mean of exactly 5, so
// against a reference variance of v/16 the 16x ratio signal must trip at
// v = 7.24 and stay quiet at v = 7.26.
func TestDetectorVarianceMatchesDirect(t *testing.T) {
	vals := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3}
	for _, tc := range []struct {
		v    float64
		want bool
	}{{7.24, true}, {7.26, false}} {
		ref := &dataset.Scaler{Mean: []float64{5}, Std: []float64{math.Sqrt(tc.v / varRatio)}}
		d := NewDetector(ref, 0, DriftConfig{})
		for _, v := range vals {
			d.ObserveWindow(window.Matrix{{v}})
		}
		s := d.Score()
		if s.MaxEffect > 1e-9 {
			t.Fatalf("mean shifted (effect %g); values average to the reference", s.MaxEffect)
		}
		if s.Drifted != tc.want {
			t.Fatalf("reference variance %g/%d: drifted=%v, want %v (streaming variance should be 7.25)",
				tc.v, varRatio, s.Drifted, tc.want)
		}
	}
}
