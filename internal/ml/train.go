package ml

import (
	"context"
	"fmt"
	"strings"

	"quanterference/internal/dataset"
	"quanterference/internal/nn"
	"quanterference/internal/par"
	"quanterference/internal/sim"
)

// The optimiser settings every training loop runs: Adam at learning rate
// 1e-3 over mini-batches of 32 samples.
const (
	batchSize    = 32
	learningRate = 1e-3
)

// gradShards is the fixed number of gradient shards a mini-batch is split
// into when TrainConfig.Workers >= 1. The shard partition and the reduction
// tree depend only on this constant and the batch length — never on the
// worker count — which is what makes trained weights bit-identical across
// TrainConfig.Workers values. Four shards keeps the per-batch reduction
// (shard-count accumulate+zero passes over every parameter) cheap relative
// to the gradient work in each shard at the batch size of 32.
const gradShards = 4

// TrainConfig controls the training loop. The classifier loss always
// weights each sample inversely to its class frequency (the datasets are
// imbalanced, e.g. DLIO is ~4:1 negative).
type TrainConfig struct {
	Epochs int // default 60
	Seed   int64
	// Workers sets how a mini-batch's gradients are computed. 0 (the
	// default) computes them on one shard, the model itself, bit-identical
	// to previous releases. Any value >= 1 splits each mini-batch into
	// gradShards fixed sample ranges: the model takes the first,
	// weight-sharing replicas the others, up to Workers of them run at
	// once, and a fixed-order pairwise tree reduces the shard gradients
	// into the model. Weights are bit-identical for every Workers value >= 1
	// (1 runs the same shard schedule on the calling goroutine); only
	// wall-clock time changes. Models that do not implement Replicable
	// train on one shard.
	Workers int
	// OnEpoch, when set, receives the mean training loss after each epoch.
	OnEpoch func(epoch int, loss float64)
}

// classWeights computes the per-class loss weights for a dataset: each
// class weighs inversely to its frequency, so every class contributes the
// same total weight (a class with no samples keeps weight 1).
func classWeights(train *dataset.Dataset) []float64 {
	weights := make([]float64, train.Classes)
	for c, n := range train.ClassCounts() {
		weights[c] = 1
		if n > 0 {
			weights[c] = float64(train.Len()) / (float64(train.Classes) * float64(n))
		}
	}
	return weights
}

// miniBatches is the training loop every training call runs: cfg.Epochs
// epochs (default 60) over n samples, each checking ctx, shuffling with an
// RNG seeded from cfg.Seed^salt and cutting the permutation into batches of
// batchSize. step accumulates one batch's gradients into params and returns
// the running epoch loss it is given plus the batch's losses; one Adam step
// over params follows each batch. It returns the last epoch's mean loss, or
// ctx.Err() with the loss so far once ctx is done.
func miniBatches(ctx context.Context, n int, cfg TrainConfig, salt int64, params []nn.Param,
	step func(batch []int, loss float64) float64) (float64, error) {
	if n == 0 {
		panic("ml: empty training set")
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = 60
	}
	opt := nn.NewAdam(learningRate)
	rng := sim.NewRNG(cfg.Seed ^ salt)
	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return lastLoss, err
		}
		perm := rng.Perm(n)
		var epochLoss float64
		for start := 0; start < n; start += batchSize {
			batch := perm[start:min(start+batchSize, n)]
			epochLoss = step(batch, epochLoss)
			opt.Step(params, 1/float64(len(batch)))
		}
		lastLoss = epochLoss / float64(n)
		if cfg.OnEpoch != nil {
			cfg.OnEpoch(epoch, lastLoss)
		}
	}
	return lastLoss, nil
}

// Train fits the model on the dataset with Adam and mini-batches of 32,
// weighting the loss by class (see TrainConfig). It returns the final mean
// training loss.
//
// Every Workers value runs the same loop and sees the same shuffles; with
// Workers >= 1 and a Replicable model, a batch's gradients are computed on
// parallel shards and summed by a fixed tree (see TrainConfig.Workers).
func Train(m Model, train *dataset.Dataset, cfg TrainConfig) float64 {
	loss, _ := TrainCtx(context.Background(), m, train, cfg)
	return loss
}

// TrainCtx is Train with cancellation: the epoch loop checks ctx before each
// epoch and returns ctx.Err() with the loss so far when the context is done.
// Epochs that ran are exactly the epochs Train would have run —
// cancellation never perturbs the RNG stream or the gradient arithmetic, so
// an uncancelled TrainCtx is bit-identical to Train.
//
// Gradient accumulators belong to the call, not the model: a model of this
// package gets them on its first backward pass and loses them on every
// return, cancelled or not, so a trained model holds weights and inference
// scratch only.
func TrainCtx(ctx context.Context, m Model, train *dataset.Dataset, cfg TrainConfig) (float64, error) {
	if g, ok := m.(gradModel); ok {
		defer g.dropGrads()
	}
	weights := classWeights(train)
	// Shard 0 is the model itself; with Workers >= 1 replicas take the
	// others. The reduction reads Params slices taken here, before any
	// backward pass, so every shard needs its accumulators now.
	shards := []Model{m}
	if r, ok := m.(Replicable); ok && cfg.Workers >= 1 {
		for len(shards) < gradShards {
			shards = append(shards, r.Replica())
		}
	}
	params := make([][]nn.Param, len(shards))
	for s, sm := range shards {
		ensureGrads(sm)
		params[s] = sm.Params()
	}
	// addLosses adds the losses of samples idxs to loss, accumulating their
	// gradients on shard s.
	addLosses := func(s int, idxs []int, loss float64) float64 {
		for _, idx := range idxs {
			smp := train.Samples[idx]
			loss += shards[s].LossAndGrad(smp.Vectors, smp.Label, weights[smp.Label])
		}
		return loss
	}
	losses := make([]float64, len(shards))
	return miniBatches(ctx, train.Len(), cfg, 0x7a11, params[0], func(batch []int, loss float64) float64 {
		ns := min(len(shards), len(batch))
		if ns == 1 {
			// Each sample's loss goes straight into the running loss; a
			// per-shard sum would round differently.
			return addLosses(0, batch, loss)
		}
		// Each shard accumulates into its own model: no shared mutable
		// state between workers until the barrier below.
		par.MapN(ns, cfg.Workers, func(s int) {
			lo, hi := shardBounds(len(batch), ns, s)
			losses[s] = addLosses(s, batch[lo:hi], 0)
		})
		// Fixed-order pairwise tree reduction into shard 0, the model.
		for stride := 1; stride < ns; stride *= 2 {
			for i := 0; i+stride < ns; i += 2 * stride {
				nn.AccumulateGrads(params[i], params[i+stride])
				nn.ZeroGrads(params[i+stride])
				losses[i] += losses[i+stride]
			}
		}
		return loss + losses[0]
	})
}

// shardBounds splits n samples into ns shards by ceiling division and
// returns shard s's [lo, hi) range (possibly empty for trailing shards).
func shardBounds(n, ns, s int) (int, int) {
	size := (n + ns - 1) / ns
	lo := s * size
	hi := lo + size
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// ensureGrads gives a model of this package its gradient accumulators now.
func ensureGrads(m Model) {
	if g, ok := m.(gradModel); ok {
		g.ensureGrads()
	}
}

// Confusion is a square confusion matrix: M[true][pred].
type Confusion struct {
	M [][]int
}

// NewConfusion creates an empty matrix for n classes.
func NewConfusion(n int) *Confusion {
	m := make([][]int, n)
	for i := range m {
		m[i] = make([]int, n)
	}
	return &Confusion{M: m}
}

// Add records one prediction.
func (c *Confusion) Add(trueLabel, pred int) { c.M[trueLabel][pred]++ }

// Total returns the number of recorded predictions.
func (c *Confusion) Total() int {
	n := 0
	for _, row := range c.M {
		for _, v := range row {
			n += v
		}
	}
	return n
}

// Accuracy is the fraction of correct predictions.
func (c *Confusion) Accuracy() float64 {
	correct := 0
	for i := range c.M {
		correct += c.M[i][i]
	}
	total := c.Total()
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// Precision for one class: TP / (TP + FP).
func (c *Confusion) Precision(class int) float64 {
	tp := c.M[class][class]
	col := 0
	for i := range c.M {
		col += c.M[i][class]
	}
	if col == 0 {
		return 0
	}
	return float64(tp) / float64(col)
}

// Recall for one class: TP / (TP + FN).
func (c *Confusion) Recall(class int) float64 {
	tp := c.M[class][class]
	row := 0
	for _, v := range c.M[class] {
		row += v
	}
	if row == 0 {
		return 0
	}
	return float64(tp) / float64(row)
}

// F1 for one class.
func (c *Confusion) F1(class int) float64 {
	p, r := c.Precision(class), c.Recall(class)
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// MacroF1 averages F1 over classes.
func (c *Confusion) MacroF1() float64 {
	var s float64
	for i := range c.M {
		s += c.F1(i)
	}
	return s / float64(len(c.M))
}

// Render draws the matrix with per-class P/R/F1, suitable for terminals.
func (c *Confusion) Render(classNames []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s", "true\\pred")
	for _, n := range classNames {
		fmt.Fprintf(&b, "%10s", n)
	}
	fmt.Fprintf(&b, "%10s%10s%10s\n", "prec", "recall", "f1")
	for i, row := range c.M {
		fmt.Fprintf(&b, "%-10s", classNames[i])
		for _, v := range row {
			fmt.Fprintf(&b, "%10d", v)
		}
		fmt.Fprintf(&b, "%10.3f%10.3f%10.3f\n", c.Precision(i), c.Recall(i), c.F1(i))
	}
	fmt.Fprintf(&b, "accuracy %.3f  macro-F1 %.3f  n=%d\n",
		c.Accuracy(), c.MacroF1(), c.Total())
	return b.String()
}

// Evaluate runs the model over a dataset and tallies the confusion matrix,
// predicting each sample's argmax class.
func Evaluate(m Model, ds *dataset.Dataset) *Confusion {
	c := NewConfusion(ds.Classes)
	probs := make([]float64, ds.Classes)
	for _, s := range ds.Samples {
		c.Add(s.Label, argmax(m.ProbsInto(probs, s.Vectors)))
	}
	return c
}
