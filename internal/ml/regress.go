package ml

import (
	"math"

	"quanterference/internal/dataset"
	"quanterference/internal/nn"
	"quanterference/internal/sim"
)

// KernelRegressor predicts the exact slowdown level rather than a bin — the
// extension the paper explicitly set aside ("we do not try to predict the
// exact slowdown ratio"). It reuses the kernel architecture with a single
// linear output trained with MSE on log2(degradation), so a prediction of
// 0 means "no slowdown" and each unit is a doubling.
type KernelRegressor struct {
	Kernel *nn.Sequential
	Head   *nn.Sequential

	nTargets int
	nFeat    int
	paramCache
}

// NewKernelRegressor sizes the regressor like NewKernelModel.
func NewKernelRegressor(nTargets, nFeat int, seed int64) *KernelRegressor {
	rng := sim.NewRNG(seed ^ 0x4e57)
	kernel := nn.MLP(rng, nFeat, 32, 16, 1)
	head := nn.MLP(rng, nTargets, 16, 1)
	return &KernelRegressor{
		Kernel:     kernel,
		Head:       head,
		nTargets:   nTargets,
		nFeat:      nFeat,
		paramCache: newParamCache(kernel, head),
	}
}

// forward runs the network through apply — Sequential.Forward for training,
// Sequential.Infer for prediction — so both paths share one arithmetic.
func (m *KernelRegressor) forward(vectors [][]float64, apply func(*nn.Sequential, []float64) []float64) float64 {
	if len(vectors) != m.nTargets {
		panic("ml: wrong target count")
	}
	z := make([]float64, m.nTargets)
	for t, v := range vectors {
		z[t] = apply(m.Kernel, v)[0]
	}
	return apply(m.Head, z)[0]
}

func (m *KernelRegressor) backward(dout float64) {
	m.ensureGrads()
	dz := m.Head.Backward([]float64{dout})
	for t := m.nTargets - 1; t >= 0; t-- {
		m.Kernel.Backward([]float64{dz[t]})
	}
}

// PredictLog2 returns the predicted log2 slowdown. It pushes no training
// caches, so it needs no backward pass afterwards.
func (m *KernelRegressor) PredictLog2(vectors [][]float64) float64 {
	return m.forward(vectors, (*nn.Sequential).Infer)
}

// Params exposes trainable parameters; every G is nil outside
// TrainRegressor, as for Model.
func (m *KernelRegressor) Params() []nn.Param { return m.params }

// Log2Degradation is the regression target for a sample.
func Log2Degradation(deg float64) float64 {
	if deg < 1 {
		deg = 1
	}
	return math.Log2(deg)
}

// TrainRegressor fits the regressor with Adam and MSE on log2(degradation).
// It returns the final epoch's mean squared error, and leaves the regressor
// without gradient accumulators, like TrainCtx.
func TrainRegressor(m *KernelRegressor, train *dataset.Dataset, cfg TrainConfig) float64 {
	cfg.applyDefaults()
	if train.Len() == 0 {
		panic("ml: empty training set")
	}
	defer m.dropGrads()
	opt := nn.NewAdam(learningRate)
	rng := sim.NewRNG(cfg.Seed ^ 0x9e57)
	var last float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := rng.Perm(train.Len())
		var sse float64
		for start := 0; start < len(perm); start += batchSize {
			end := start + batchSize
			if end > len(perm) {
				end = len(perm)
			}
			for _, idx := range perm[start:end] {
				s := train.Samples[idx]
				y := m.forward(s.Vectors, (*nn.Sequential).Forward)
				target := Log2Degradation(s.Degradation)
				diff := y - target
				sse += diff * diff
				m.backward(2 * diff)
			}
			opt.Step(m.Params(), 1/float64(end-start))
		}
		last = sse / float64(train.Len())
		if cfg.OnEpoch != nil {
			cfg.OnEpoch(epoch, last)
		}
	}
	return last
}

// RegressorEval summarizes a regressor on held-out data.
type RegressorEval struct {
	// MAELog2 is the mean absolute error in doublings.
	MAELog2 float64
	// RMSELog2 is the root mean squared error in doublings.
	RMSELog2 float64
	// Binned classifies the continuous predictions with the given bins,
	// making the regressor directly comparable to the classifiers.
	Binned *Confusion
}

// EvaluateRegressor computes log-space errors and a binned confusion matrix
// using labelOf (e.g. label.Bins.Label) over the de-logged predictions.
func EvaluateRegressor(m *KernelRegressor, ds *dataset.Dataset, labelOf func(deg float64) int, classes int) RegressorEval {
	ev := RegressorEval{Binned: NewConfusion(classes)}
	if ds.Len() == 0 {
		return ev
	}
	var absSum, sqSum float64
	for _, s := range ds.Samples {
		pred := m.PredictLog2(s.Vectors)
		target := Log2Degradation(s.Degradation)
		diff := pred - target
		absSum += math.Abs(diff)
		sqSum += diff * diff
		ev.Binned.Add(labelOf(s.Degradation), labelOf(math.Exp2(pred)))
	}
	n := float64(ds.Len())
	ev.MAELog2 = absSum / n
	ev.RMSELog2 = math.Sqrt(sqSum / n)
	return ev
}
