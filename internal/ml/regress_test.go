package ml

import (
	"math"
	"testing"

	"quanterference/internal/dataset"
	"quanterference/internal/nn"
	"quanterference/internal/sim"
)

// regressionDataset: degradation is a deterministic function of two
// features summed over targets, spanning 1x..16x.
func regressionDataset(n int, seed int64) *dataset.Dataset {
	names := []string{"a", "b", "c"}
	d := dataset.New(names, 4, 2)
	rng := sim.NewRNG(seed)
	for i := 0; i < n; i++ {
		vecs := make([][]float64, 4)
		var load float64
		for t := range vecs {
			v := []float64{rng.Float64(), rng.Float64(), rng.NormFloat64() * 0.05}
			load += v[0] * v[1]
			vecs[t] = v
		}
		deg := math.Exp2(load) // 1x .. 16x
		lbl := 0
		if deg >= 2 {
			lbl = 1
		}
		d.Add(&dataset.Sample{Window: i, Degradation: deg, Label: lbl, Vectors: vecs})
	}
	return d
}

func TestLog2DegradationClampsBelowOne(t *testing.T) {
	if Log2Degradation(0.5) != 0 || Log2Degradation(1) != 0 {
		t.Fatal("sub-1 degradations should clamp to 0")
	}
	if Log2Degradation(8) != 3 {
		t.Fatalf("log2(8)=%f", Log2Degradation(8))
	}
}

func TestRegressorLearnsContinuousTarget(t *testing.T) {
	d := regressionDataset(1500, 11)
	train, test := d.Split(0.2, 2)
	m := NewKernelRegressor(4, 3, 3)
	var first, last float64
	TrainRegressor(m, train, TrainConfig{Epochs: 120, Seed: 4,
		OnEpoch: func(e int, mse float64) {
			if e == 0 {
				first = mse
			}
			last = mse
		}})
	if last >= first {
		t.Fatalf("MSE did not improve: %f -> %f", first, last)
	}
	binOf := func(deg float64) int {
		if deg >= 2 {
			return 1
		}
		return 0
	}
	ev := EvaluateRegressor(m, test, binOf, 2)
	t.Logf("MAE %.3f doublings, RMSE %.3f, binned accuracy %.3f",
		ev.MAELog2, ev.RMSELog2, ev.Binned.Accuracy())
	if ev.MAELog2 > 0.5 {
		t.Fatalf("MAE %.3f doublings too high", ev.MAELog2)
	}
	if ev.Binned.Accuracy() < 0.85 {
		t.Fatalf("binned accuracy %.3f", ev.Binned.Accuracy())
	}
}

func TestRegressorGradCheck(t *testing.T) {
	m := NewKernelRegressor(2, 3, 9)
	vectors := [][]float64{{0.4, -0.2, 1.0}, {-1.1, 0.7, 0.1}}
	target := 1.7
	lossFn := func() float64 {
		diff := m.PredictLog2(vectors) - target
		return diff * diff
	}
	y := m.forward(vectors, (*nn.Sequential).Forward)
	m.backward(2 * (y - target))
	analytic := make([][]float64, len(m.Params()))
	for i, p := range m.Params() {
		analytic[i] = append([]float64(nil), p.G...)
	}
	for _, p := range m.Params() {
		for j := range p.G {
			p.G[j] = 0
		}
	}
	const h = 1e-6
	for pi, p := range m.Params() {
		for j := range p.W {
			orig := p.W[j]
			p.W[j] = orig + h
			lp := lossFn()
			p.W[j] = orig - h
			lm := lossFn()
			p.W[j] = orig
			numeric := (lp - lm) / (2 * h)
			if math.Abs(analytic[pi][j]-numeric) > 1e-4*(1+math.Abs(numeric)) {
				t.Fatalf("param %d[%d]: analytic %g vs numeric %g", pi, j, analytic[pi][j], numeric)
			}
		}
	}
}

func TestEvaluateRegressorEmptyDataset(t *testing.T) {
	m := NewKernelRegressor(1, 1, 1)
	ev := EvaluateRegressor(m, dataset.New([]string{"x"}, 1, 2), func(float64) int { return 0 }, 2)
	if ev.MAELog2 != 0 || ev.Binned.Total() != 0 {
		t.Fatal("empty dataset should give zero eval")
	}
}
