package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSumMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !almost(Sum(xs), 40) {
		t.Fatalf("sum=%f", Sum(xs))
	}
	if !almost(Mean(xs), 5) {
		t.Fatalf("mean=%f", Mean(xs))
	}
	if !almost(Std(xs), 2) {
		t.Fatalf("std=%f", Std(xs))
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	if Sum(nil) != 0 || Mean(nil) != 0 || Std(nil) != 0 {
		t.Fatal("empty input should give zeros")
	}
	if Std([]float64{42}) != 0 {
		t.Fatal("singleton std should be 0")
	}
}

func TestMovingAverageFlatSignal(t *testing.T) {
	xs := []float64{3, 3, 3, 3, 3}
	for i, v := range MovingAverage(xs, 3) {
		if !almost(v, 3) {
			t.Fatalf("flat signal changed at %d: %f", i, v)
		}
	}
}

func TestMovingAverageSmooths(t *testing.T) {
	xs := []float64{0, 10, 0, 10, 0, 10}
	sm := MovingAverage(xs, 3)
	// Interior points become the local mean.
	if !almost(sm[2], 20.0/3) && !almost(sm[2], 10.0/3) {
		// window [10,0,10] -> 20/3
		t.Fatalf("smoothed[2]=%f", sm[2])
	}
	if MovingAverage(xs, 1)[1] != 10 {
		t.Fatal("width<2 must copy")
	}
}

// Property: moving average preserves bounds and overall mean approximately.
func TestPropertyMovingAverageBounds(t *testing.T) {
	f := func(raw []uint8, width uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			xs[i] = float64(r)
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		for _, v := range MovingAverage(xs, int(width%9)) {
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
