// Package ml implements the paper's kernel-based classification model
// (§III-C): a shared dense network applied independently to each per-server
// vector, whose scalar outputs are concatenated and fed to a small MLP head
// for multi-bin classification. It also provides a flat-MLP baseline (for
// the architecture ablation), an attention extension, a slowdown regressor,
// one mini-batch training loop that trains all of them (a batch's gradients
// come from the model alone, or from parallel shards summed by a fixed
// reduction tree), and evaluation metrics (confusion matrices,
// precision/recall/F1).
//
// Inference has one path: Model.ProbsInto writes a window's class
// distribution into a caller-owned slice through nn's cache-free Infer, so it
// pushes no backward state, needs no cleanup pass, and interleaves freely
// with training. Evaluate, core.Framework, the forecaster heads and the
// serving batcher all classify through it; the class is its argmax.
package ml

import (
	"fmt"

	"quanterference/internal/nn"
	"quanterference/internal/sim"
)

// Model is a classifier over per-server vector matrices.
type Model interface {
	// ProbsInto writes the class distribution for one window's matrix into
	// dst (length must equal the class count) and returns dst. It leaves no
	// training state behind, and a model in this package allocates nothing
	// per call.
	ProbsInto(dst []float64, vectors [][]float64) []float64
	// LossAndGrad accumulates parameter gradients for one sample and
	// returns its weighted loss.
	LossAndGrad(vectors [][]float64, label int, weight float64) float64
	// Params exposes the trainable parameters. Outside a training call a
	// model of this package holds no gradient accumulators, so every G is
	// nil.
	Params() []nn.Param
}

// gradModel is a model whose gradient accumulators exist only inside a
// training call: every model in this package, through paramCache.
type gradModel interface {
	ensureGrads()
	dropGrads()
}

// paramCache is a model's cached Params slice over its trainable layers, in
// Params order, so the per-batch opt.Step(m.Params(), …) allocates nothing.
// The layers' gradient accumulators exist only while the model trains: the
// first backward pass creates them (ensureGrads) and the training call drops
// them on return (dropGrads). Each transition rebuilds the cache into a fresh
// slice; nothing rebuilds it per batch.
type paramCache struct {
	layers []nn.GradLayer
	params []nn.Param
}

func newParamCache(layers ...nn.GradLayer) paramCache {
	c := paramCache{layers: layers}
	c.rebuild()
	return c
}

func (c *paramCache) rebuild() {
	params := make([]nn.Param, 0, len(c.params))
	for _, l := range c.layers {
		params = nn.AppendParams(params, l)
	}
	c.params = params
}

// ensureGrads gives every layer its accumulators, keeping any a direct
// layer Backward already created, and rebuilds the cache. The cache only
// ever holds all accumulators or none, so its first entry tells which.
func (c *paramCache) ensureGrads() {
	if c.params[0].G != nil {
		return
	}
	for _, l := range c.layers {
		l.AllocGrads()
	}
	c.rebuild()
}

// dropGrads releases every layer's accumulators and rebuilds the cache.
func (c *paramCache) dropGrads() {
	for _, l := range c.layers {
		l.DropGrads()
	}
	c.rebuild()
}

// Dims reports a model's input/output shape — what a serving layer needs to
// validate requests before they reach the model's panicking check. ok is
// false for model types this package does not know.
func Dims(m Model) (nTargets, nFeat, classes int, ok bool) {
	switch t := m.(type) {
	case *KernelModel:
		return t.nTargets, t.nFeat, t.classes, true
	case *FlatModel:
		return t.nTargets, t.nFeat, t.classes, true
	case *AttentionModel:
		return t.nTargets, t.nFeat, t.classes, true
	}
	return 0, 0, 0, false
}

// Replicable is a Model that can produce weight-sharing replicas for
// data-parallel training (TrainConfig.Workers): a replica shares the
// original's weight slices but owns private gradient accumulators and
// scratch state, so replicas may run LossAndGrad concurrently as long as
// weights are only updated between batches. All models in this package
// implement it.
type Replicable interface {
	Model
	// Replica returns a weight-sharing replica; see the interface comment.
	Replica() Model
}

// KernelModel is the paper's architecture. Because the kernel network's
// weights are shared across servers, the model generalizes over which
// subset of OSTs a file actually uses — the motivation given in §III-C.
type KernelModel struct {
	Kernel *nn.Sequential // per-server vector -> 1 scalar
	Head   *nn.Sequential // nTargets scalars -> class logits

	nTargets int
	nFeat    int
	classes  int

	// Reusable per-model scratch; replicas get their own, keeping the
	// training and inference hot loops allocation-free.
	z   []float64  // kernel outputs / head input
	dzt [1]float64 // per-target backward seed
	ce  nn.CEScratch
	paramCache
}

// KernelConfig sizes the model's inputs and outputs; the hidden widths are
// fixed (see NewKernelModel).
type KernelConfig struct {
	NTargets int
	NFeat    int
	Classes  int
	Seed     int64
}

// NewKernelModel builds the model with He initialization: the shared kernel
// network is NFeat→32→16→1 and the head NTargets→16→Classes.
func NewKernelModel(cfg KernelConfig) *KernelModel {
	if cfg.NTargets <= 0 || cfg.NFeat <= 0 || cfg.Classes < 2 {
		panic("ml: bad kernel model config")
	}
	rng := sim.NewRNG(cfg.Seed ^ 0x4b4e)
	kernel := nn.MLP(rng, cfg.NFeat, 32, 16, 1)
	head := nn.MLP(rng, cfg.NTargets, 16, cfg.Classes)
	return newKernelModel(kernel, head, cfg.NTargets, cfg.NFeat, cfg.Classes)
}

func newKernelModel(kernel, head *nn.Sequential, nTargets, nFeat, classes int) *KernelModel {
	return &KernelModel{
		Kernel:     kernel,
		Head:       head,
		nTargets:   nTargets,
		nFeat:      nFeat,
		classes:    classes,
		z:          make([]float64, nTargets),
		paramCache: newParamCache(kernel, head),
	}
}

// Replica implements Replicable.
func (m *KernelModel) Replica() Model {
	return newKernelModel(m.Kernel.Replica(), m.Head.Replica(),
		m.nTargets, m.nFeat, m.classes)
}

func (m *KernelModel) check(vectors [][]float64) {
	if len(vectors) != m.nTargets {
		panic(fmt.Sprintf("ml: %d vectors, want %d", len(vectors), m.nTargets))
	}
}

// forward runs kernel-per-target then head, leaving caches in place.
func (m *KernelModel) forward(vectors [][]float64) []float64 {
	m.check(vectors)
	for t, v := range vectors {
		m.z[t] = m.Kernel.Forward(v)[0]
	}
	return m.Head.Forward(m.z)
}

// ProbsInto implements Model: forward's arithmetic on nn's Infer path, so
// the logits are bit-identical to a training pass but no caches are pushed.
func (m *KernelModel) ProbsInto(dst []float64, vectors [][]float64) []float64 {
	m.check(vectors)
	for t, v := range vectors {
		m.z[t] = m.Kernel.Infer(v)[0]
	}
	return nn.SoftmaxInto(dst, m.Head.Infer(m.z))
}

// LossAndGrad implements Model.
func (m *KernelModel) LossAndGrad(vectors [][]float64, label int, weight float64) float64 {
	m.ensureGrads()
	logits := m.forward(vectors)
	loss, dlogits := m.ce.SoftmaxCE(logits, label, weight)
	dz := m.Head.Backward(dlogits)
	// Kernel caches are a stack: backprop targets in reverse order. The
	// kernel's own input gradient is never used, so skip computing it.
	for t := m.nTargets - 1; t >= 0; t-- {
		m.dzt[0] = dz[t]
		m.Kernel.BackwardNoDX(m.dzt[:])
	}
	return loss
}

// Params implements Model.
func (m *KernelModel) Params() []nn.Param { return m.params }

// FlatModel is the ablation baseline: one MLP over the concatenation of all
// per-server vectors, with no weight sharing across servers.
type FlatModel struct {
	Net      *nn.Sequential
	nTargets int
	nFeat    int
	classes  int

	flat []float64 // flatten scratch
	ce   nn.CEScratch
	paramCache
}

// NewFlatModel builds the baseline with a comparable parameter budget:
// one nTargets·nFeat→64→16→classes network.
func NewFlatModel(nTargets, nFeat, classes int, seed int64) *FlatModel {
	rng := sim.NewRNG(seed ^ 0xf1a7)
	return newFlatModel(nn.MLP(rng, nTargets*nFeat, 64, 16, classes), nTargets, nFeat, classes)
}

func newFlatModel(net *nn.Sequential, nTargets, nFeat, classes int) *FlatModel {
	return &FlatModel{
		Net:      net,
		nTargets: nTargets, nFeat: nFeat, classes: classes,
		flat:       make([]float64, 0, nTargets*nFeat),
		paramCache: newParamCache(net),
	}
}

// Replica implements Replicable.
func (m *FlatModel) Replica() Model {
	return newFlatModel(m.Net.Replica(), m.nTargets, m.nFeat, m.classes)
}

func (m *FlatModel) flatten(vectors [][]float64) []float64 {
	x := m.flat[:0]
	for _, v := range vectors {
		x = append(x, v...)
	}
	m.flat = x
	return x
}

// ProbsInto implements Model; see KernelModel.ProbsInto.
func (m *FlatModel) ProbsInto(dst []float64, vectors [][]float64) []float64 {
	return nn.SoftmaxInto(dst, m.Net.Infer(m.flatten(vectors)))
}

// LossAndGrad implements Model.
func (m *FlatModel) LossAndGrad(vectors [][]float64, label int, weight float64) float64 {
	m.ensureGrads()
	logits := m.Net.Forward(m.flatten(vectors))
	loss, dlogits := m.ce.SoftmaxCE(logits, label, weight)
	m.Net.BackwardNoDX(dlogits)
	return loss
}

// Params implements Model.
func (m *FlatModel) Params() []nn.Param { return m.params }

func argmax(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}

var _ Replicable = (*KernelModel)(nil)
var _ Replicable = (*FlatModel)(nil)
