// Package nn is a small from-scratch neural-network library: dense layers,
// ReLU, softmax cross-entropy, and the Adam optimizer — everything the
// paper's kernel-based classification model needs, with hand-written
// backpropagation and no external dependencies.
//
// Layers cache forward inputs on an internal stack, so a layer (or a whole
// Sequential) can be applied several times within one computation — exactly
// what the kernel-based model does when it applies the same shared network
// to each per-server vector — as long as Backward calls happen in reverse
// order of the Forwards.
//
// # Buffer reuse
//
// Layers recycle their forward-output and backward-gradient buffers through
// depth-indexed pools instead of allocating per call, which removes every
// per-sample allocation from the training hot loop. The contract callers get
// is exactly what the LIFO cache discipline already implies:
//
//   - A Forward result is valid until the Backward that consumes the same
//     stack depth has run and the layer is Forwarded at that depth again.
//   - A Backward result is valid until the layer's next Backward at the same
//     stack depth — in a training loop, until the next sample.
//
// Every model in internal/ml (kernel, flat, attention, regressor) satisfies
// this by construction. Buffer reuse changes no arithmetic: serial training
// produces bit-identical weights to the pre-pooling implementation.
//
// # Gradient accumulators
//
// A layer holds its weights and its inference scratch only; gradient
// accumulators exist only while it trains. A Backward creates zeroed
// accumulators on demand, AllocGrads creates them up front, and DropGrads
// releases them, after which Params reports a nil G. internal/ml builds on
// this: a model outside a training call (constructed, restored, cloned,
// loaded, or trained and returned) holds weights and inference scratch only.
//
// # Replicas
//
// Data-parallel training (internal/ml's TrainConfig.Workers) runs one model
// replica per gradient shard. Dense.Replica, ReLU.Replica, and
// Sequential.Replica return layers that share the trainable weight slices
// with the original but own private gradient accumulators (created on
// demand, like the original's), caches, and scratch pools, so replicas may
// run forward/backward concurrently as long as weights are only updated
// between batches.
package nn

import (
	"fmt"
	"math"

	"quanterference/internal/sim"
)

// Param couples a weight slice with its gradient accumulator. G is nil
// while the layer holds no accumulators (see the package comment).
type Param struct {
	W []float64
	G []float64
}

// Layer is a differentiable module.
type Layer interface {
	// Forward computes the output for x and caches what Backward needs.
	Forward(x []float64) []float64
	// Backward consumes the most recent cached forward state (LIFO),
	// accumulates parameter gradients, and returns dLoss/dx.
	Backward(dy []float64) []float64
	// Params exposes trainable parameters with their gradients.
	Params() []Param
}

// GradLayer is a layer whose gradient accumulators exist only while it
// trains. Dense and Sequential implement it.
type GradLayer interface {
	Layer
	// AllocGrads gives every parameter a zeroed accumulator if it has none;
	// existing accumulators are kept.
	AllocGrads()
	// DropGrads releases the accumulators; Params then reports a nil G.
	DropGrads()
}

// LayerReplicator is the extension hook for custom layers that support
// weight-sharing replicas; the built-in layers are handled directly by
// ReplicaLayer.
type LayerReplicator interface {
	// ReplicaLayer returns a layer sharing this layer's trainable weights
	// but owning private gradient accumulators and caches.
	ReplicaLayer() Layer
}

// ReplicaLayer returns a weight-sharing replica of any supported layer (the
// built-ins, or anything implementing LayerReplicator). It panics on layers
// that cannot be replicated.
func ReplicaLayer(l Layer) Layer {
	switch t := l.(type) {
	case *Dense:
		return t.Replica()
	case *ReLU:
		return t.Replica()
	case *Sequential:
		return t.Replica()
	}
	if r, ok := l.(LayerReplicator); ok {
		return r.ReplicaLayer()
	}
	panic(fmt.Sprintf("nn: layer %T does not support replicas", l))
}

// bufPool recycles float64 buffers by forward-stack depth: the buffer used
// at depth k is handed out again the next time the layer runs at depth k,
// which the LIFO cache discipline guarantees is after the previous consumer
// finished with it. Buffers come back with stale contents; callers must
// overwrite (or clear) them fully.
type bufPool struct {
	bufs [][]float64
}

func (p *bufPool) get(depth, n int) []float64 {
	for len(p.bufs) <= depth {
		p.bufs = append(p.bufs, nil)
	}
	b := p.bufs[depth]
	if cap(b) < n {
		b = make([]float64, n)
		p.bufs[depth] = b
	}
	return b[:n]
}

// Dense is a fully connected layer: y = Wx + b. GW and GB, its gradient
// accumulators, are nil outside training (see the package comment).
type Dense struct {
	In, Out int
	W, B    []float64
	GW, GB  []float64

	inputs   [][]float64 // forward cache stack
	outs     bufPool     // forward output buffers, by stack depth
	dxs      bufPool     // backward input-gradient buffers, by stack depth
	inferOut []float64   // Infer's output buffer (no cache stack)
}

// NewDense creates a dense layer with He-normal initialization.
func NewDense(in, out int, rng *sim.RNG) *Dense {
	d := &Dense{
		In: in, Out: out,
		W: make([]float64, in*out),
		B: make([]float64, out),
	}
	scale := math.Sqrt(2.0 / float64(in))
	for i := range d.W {
		d.W[i] = rng.NormFloat64() * scale
	}
	return d
}

// Replica returns a Dense sharing W and B with d but owning its own
// gradient accumulators, caches, and scratch buffers (see the package
// comment).
func (d *Dense) Replica() *Dense {
	return &Dense{In: d.In, Out: d.Out, W: d.W, B: d.B}
}

// AllocGrads implements GradLayer.
func (d *Dense) AllocGrads() {
	if d.GW == nil {
		d.GW = make([]float64, len(d.W))
		d.GB = make([]float64, len(d.B))
	}
}

// DropGrads implements GradLayer.
func (d *Dense) DropGrads() { d.GW, d.GB = nil, nil }

// Forward implements Layer. The returned slice is pooled; see the package
// comment for its lifetime.
func (d *Dense) Forward(x []float64) []float64 {
	if len(x) != d.In {
		panic(fmt.Sprintf("nn: dense expects %d inputs, got %d", d.In, len(x)))
	}
	y := d.outs.get(len(d.inputs), d.Out)
	d.inputs = append(d.inputs, x)
	d.apply(x, y)
	return y
}

// Infer computes exactly Forward's output but caches nothing, so no Backward
// pass is needed to pop state afterwards — that halves the cost of an
// inference-only evaluation. Both paths funnel through the same apply kernel,
// so their outputs are bit-identical. The returned slice is the layer's
// dedicated inference buffer, valid until its next Infer call.
func (d *Dense) Infer(x []float64) []float64 {
	if len(x) != d.In {
		panic(fmt.Sprintf("nn: dense expects %d inputs, got %d", d.In, len(x)))
	}
	if cap(d.inferOut) < d.Out {
		d.inferOut = make([]float64, d.Out)
	}
	y := d.inferOut[:d.Out]
	d.apply(x, y)
	return y
}

// apply writes Wx + b into y (shared by Forward and Infer).
func (d *Dense) apply(x, y []float64) {
	n := d.In
	x = x[:n] // pin the length so the inner loops need no bounds checks
	// Four output rows at a time: each accumulator still sums its products
	// in ascending-i order (so results are bit-identical to the row-at-a-time
	// loop), but the four dependency chains overlap instead of serializing on
	// FP-add latency.
	o := 0
	for ; o+3 < d.Out; o += 4 {
		// Two-step slicing makes each row's length provably n, so the inner
		// loop compiles without bounds checks.
		r0 := d.W[(o+0)*n:][:n]
		r1 := d.W[(o+1)*n:][:n]
		r2 := d.W[(o+2)*n:][:n]
		r3 := d.W[(o+3)*n:][:n]
		s0, s1, s2, s3 := d.B[o], d.B[o+1], d.B[o+2], d.B[o+3]
		for i := range x {
			xi := x[i]
			s0 += r0[i] * xi
			s1 += r1[i] * xi
			s2 += r2[i] * xi
			s3 += r3[i] * xi
		}
		y[o], y[o+1], y[o+2], y[o+3] = s0, s1, s2, s3
	}
	for ; o < d.Out; o++ {
		row := d.W[o*n : o*n+n]
		s := d.B[o]
		for i := range row {
			s += row[i] * x[i]
		}
		y[o] = s
	}
}

// Backward implements Layer. The returned slice is pooled; see the package
// comment for its lifetime.
func (d *Dense) Backward(dy []float64) []float64 {
	return d.backward(dy, true)
}

// BackwardNoDX is Backward for an input-adjacent layer: it accumulates
// parameter gradients and pops the cache but skips computing the gradient
// with respect to the input, which the caller is going to discard.
func (d *Dense) BackwardNoDX(dy []float64) {
	d.backward(dy, false)
}

func (d *Dense) backward(dy []float64, needDX bool) []float64 {
	if len(d.inputs) == 0 {
		panic("nn: dense backward without forward")
	}
	d.AllocGrads()
	x := d.inputs[len(d.inputs)-1]
	d.inputs = d.inputs[:len(d.inputs)-1]
	n := d.In
	x = x[:n]
	// Both paths process four output rows per pass, like Forward. Gradient
	// elements are each touched once per call, and dx[i] accumulates its four
	// contributions as separate statements in ascending-o order, so blocking
	// changes no floating-point summation order.
	if !needDX {
		o := 0
		for ; o+3 < len(dy); o += 4 {
			g0, g1, g2, g3 := dy[o], dy[o+1], dy[o+2], dy[o+3]
			d.GB[o] += g0
			d.GB[o+1] += g1
			d.GB[o+2] += g2
			d.GB[o+3] += g3
			w0 := d.GW[(o+0)*n:][:n]
			w1 := d.GW[(o+1)*n:][:n]
			w2 := d.GW[(o+2)*n:][:n]
			w3 := d.GW[(o+3)*n:][:n]
			for i := range x {
				xi := x[i]
				w0[i] += g0 * xi
				w1[i] += g1 * xi
				w2[i] += g2 * xi
				w3[i] += g3 * xi
			}
		}
		for ; o < len(dy); o++ {
			g := dy[o]
			grow := d.GW[o*n : o*n+n]
			d.GB[o] += g
			for i := range grow {
				grow[i] += g * x[i]
			}
		}
		return nil
	}
	dx := d.dxs.get(len(d.inputs), n)[:n]
	clear(dx)
	o := 0
	for ; o+3 < len(dy); o += 4 {
		g0, g1, g2, g3 := dy[o], dy[o+1], dy[o+2], dy[o+3]
		d.GB[o] += g0
		d.GB[o+1] += g1
		d.GB[o+2] += g2
		d.GB[o+3] += g3
		r0 := d.W[(o+0)*n:][:n]
		r1 := d.W[(o+1)*n:][:n]
		r2 := d.W[(o+2)*n:][:n]
		r3 := d.W[(o+3)*n:][:n]
		w0 := d.GW[(o+0)*n:][:n]
		w1 := d.GW[(o+1)*n:][:n]
		w2 := d.GW[(o+2)*n:][:n]
		w3 := d.GW[(o+3)*n:][:n]
		for i := range x {
			xi := x[i]
			w0[i] += g0 * xi
			w1[i] += g1 * xi
			w2[i] += g2 * xi
			w3[i] += g3 * xi
			v := dx[i]
			v += g0 * r0[i]
			v += g1 * r1[i]
			v += g2 * r2[i]
			v += g3 * r3[i]
			dx[i] = v
		}
	}
	for ; o < len(dy); o++ {
		g := dy[o]
		row := d.W[o*n : o*n+n]
		grow := d.GW[o*n : o*n+n]
		d.GB[o] += g
		for i := range row {
			xi := x[i]
			grow[i] += g * xi
			dx[i] += g * row[i]
		}
	}
	return dx
}

// Params implements Layer.
func (d *Dense) Params() []Param {
	return []Param{{W: d.W, G: d.GW}, {W: d.B, G: d.GB}}
}

// ReLU is the rectified linear activation.
type ReLU struct {
	// cached forward outputs double as the mask: out[i] > 0 iff the unit
	// was active.
	cache    [][]float64
	outs     bufPool
	dxs      bufPool
	inferOut []float64 // Infer's output buffer (no cache stack)
}

// Replica returns a fresh ReLU (the activation has no weights to share).
func (r *ReLU) Replica() *ReLU { return &ReLU{} }

// Forward implements Layer. The returned slice is pooled; see the package
// comment for its lifetime.
func (r *ReLU) Forward(x []float64) []float64 {
	y := r.outs.get(len(r.cache), len(x))
	for i, v := range x {
		// Branchless: activation signs are data-dependent, so an if/else
		// here mispredicts constantly. max maps -0 to +0 like the branch
		// did; it differs only on NaN, which means training has already
		// diverged.
		y[i] = max(v, 0)
	}
	r.cache = append(r.cache, y)
	return y
}

// Infer is Forward without the cache push; see Dense.Infer for the contract.
func (r *ReLU) Infer(x []float64) []float64 {
	if cap(r.inferOut) < len(x) {
		r.inferOut = make([]float64, len(x))
	}
	y := r.inferOut[:len(x)]
	for i, v := range x {
		y[i] = max(v, 0) // same branchless clamp as Forward
	}
	return y
}

// Backward implements Layer. The returned slice is pooled; see the package
// comment for its lifetime.
func (r *ReLU) Backward(dy []float64) []float64 {
	if len(r.cache) == 0 {
		panic("nn: relu backward without forward")
	}
	y := r.cache[len(r.cache)-1]
	r.cache = r.cache[:len(r.cache)-1]
	dx := r.dxs.get(len(r.cache), len(dy))
	for i, g := range dy {
		// Forward clamps to +0, so y[i] is never negative or -0: the unit
		// was active iff y[i]'s bits are nonzero. b|-b has its sign bit set
		// exactly when b != 0, making the mask branchless (the branch form
		// mispredicts on data-dependent activation signs).
		b := math.Float64bits(y[i])
		m := uint64(int64(b|-b) >> 63)
		dx[i] = math.Float64frombits(math.Float64bits(g) & m)
	}
	return dx
}

// Params implements Layer.
func (r *ReLU) Params() []Param { return nil }

// Sequential chains layers.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a chain.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Replica returns a Sequential whose layers are weight-sharing replicas of
// s's layers (see the package comment).
func (s *Sequential) Replica() *Sequential {
	layers := make([]Layer, len(s.Layers))
	for i, l := range s.Layers {
		layers[i] = ReplicaLayer(l)
	}
	return &Sequential{Layers: layers}
}

// MLP builds Dense+ReLU stacks with the given sizes; the final Dense has no
// activation. sizes must have at least two entries (input, output).
func MLP(rng *sim.RNG, sizes ...int) *Sequential {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	var layers []Layer
	for i := 0; i+1 < len(sizes); i++ {
		layers = append(layers, NewDense(sizes[i], sizes[i+1], rng))
		if i+2 < len(sizes) {
			layers = append(layers, &ReLU{})
		}
	}
	return NewSequential(layers...)
}

// Forward implements Layer.
func (s *Sequential) Forward(x []float64) []float64 {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

// Inferer is a layer with an inference-only evaluation path: Infer must
// produce output bit-identical to Forward's without caching backward state.
// Dense, ReLU, and Sequential implement it; custom layers may opt in.
type Inferer interface {
	Infer(x []float64) []float64
}

// Infer runs the stack without caching backward state — the inference hot
// path of the online predictor. Outputs are bit-identical to Forward's (each
// built-in layer shares one compute kernel between the two paths), but no
// Backward/BackwardNoDX is needed afterwards, roughly halving the cost of an
// inference-only evaluation. Every layer must be a Dense, ReLU, Sequential,
// or Inferer; Infer panics otherwise. The returned slice is owned by the
// final layer and valid until that layer's next Infer call.
func (s *Sequential) Infer(x []float64) []float64 {
	for _, l := range s.Layers {
		switch t := l.(type) {
		case *Dense:
			x = t.Infer(x)
		case *ReLU:
			x = t.Infer(x)
		case *Sequential:
			x = t.Infer(x)
		case Inferer:
			x = t.Infer(x)
		default:
			panic(fmt.Sprintf("nn: layer %T does not support Infer", l))
		}
	}
	return x
}

// Backward implements Layer.
func (s *Sequential) Backward(dy []float64) []float64 {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dy = s.Layers[i].Backward(dy)
	}
	return dy
}

// BackwardNoDX is Backward for an input-adjacent stack: the gradient with
// respect to the stack's input is discarded, letting a first Dense layer
// skip computing it. Parameter gradients are identical to Backward's.
func (s *Sequential) BackwardNoDX(dy []float64) {
	for i := len(s.Layers) - 1; i >= 1; i-- {
		dy = s.Layers[i].Backward(dy)
	}
	if d, ok := s.Layers[0].(*Dense); ok {
		d.BackwardNoDX(dy)
		return
	}
	s.Layers[0].Backward(dy)
}

// Params implements Layer.
func (s *Sequential) Params() []Param { return AppendParams(nil, s) }

// AllocGrads implements GradLayer for every layer of s that is a GradLayer.
func (s *Sequential) AllocGrads() {
	for _, l := range s.Layers {
		if g, ok := l.(GradLayer); ok {
			g.AllocGrads()
		}
	}
}

// DropGrads implements GradLayer for every layer of s that is a GradLayer.
func (s *Sequential) DropGrads() {
	for _, l := range s.Layers {
		if g, ok := l.(GradLayer); ok {
			g.DropGrads()
		}
	}
}

// AppendParams appends l's Params to dst and returns the extended slice.
// Unlike Params it builds no intermediate slices for the built-in layers, so
// a caller that caches a model's parameter list rebuilds it with one
// allocation.
func AppendParams(dst []Param, l Layer) []Param {
	switch t := l.(type) {
	case *Dense:
		return append(dst, Param{W: t.W, G: t.GW}, Param{W: t.B, G: t.GB})
	case *Sequential:
		for _, sub := range t.Layers {
			dst = AppendParams(dst, sub)
		}
		return dst
	}
	return append(dst, l.Params()...)
}

// SoftmaxInto writes the normalized class distribution for logits into dst,
// which must have the same length as logits, and returns dst.
func SoftmaxInto(dst, logits []float64) []float64 {
	if len(dst) != len(logits) {
		panic(fmt.Sprintf("nn: softmax dst %d != logits %d", len(dst), len(logits)))
	}
	maxv := math.Inf(-1)
	for _, v := range logits {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range logits {
		dst[i] = math.Exp(v - maxv)
		sum += dst[i]
	}
	for i := range dst {
		dst[i] /= sum
	}
	return dst
}

// Softmax returns the normalized class distribution for logits in a freshly
// allocated slice. Hot loops should hold a CEScratch (or call SoftmaxInto
// with a reused buffer) instead.
func Softmax(logits []float64) []float64 {
	return SoftmaxInto(make([]float64, len(logits)), logits)
}

// CEScratch holds reusable buffers for softmax cross-entropy so the training
// hot loop allocates nothing per sample. The zero value is ready to use.
// A CEScratch must not be shared between goroutines; data-parallel training
// gives each model replica its own.
type CEScratch struct {
	probs []float64
	grad  []float64
}

// SoftmaxCE returns the cross-entropy loss for the true label and the
// gradient with respect to the logits, optionally scaled by weight. The
// returned gradient aliases the scratch and is valid until the next call.
func (s *CEScratch) SoftmaxCE(logits []float64, label int, weight float64) (float64, []float64) {
	if label < 0 || label >= len(logits) {
		panic(fmt.Sprintf("nn: label %d out of range %d", label, len(logits)))
	}
	if cap(s.probs) < len(logits) {
		s.probs = make([]float64, len(logits))
		s.grad = make([]float64, len(logits))
	}
	probs := SoftmaxInto(s.probs[:len(logits)], logits)
	p := probs[label]
	if p < 1e-15 {
		p = 1e-15
	}
	loss := -math.Log(p) * weight
	grad := s.grad[:len(logits)]
	for i, q := range probs {
		grad[i] = q * weight
	}
	grad[label] -= weight
	return loss, grad
}

// SoftmaxCE returns the cross-entropy loss for the true label, and the
// gradient with respect to the logits, optionally scaled by weight. Both
// returned values are freshly allocated; hot loops should use CEScratch.
func SoftmaxCE(logits []float64, label int, weight float64) (float64, []float64) {
	var s CEScratch
	return s.SoftmaxCE(logits, label, weight)
}

// Adam is the Adam optimizer.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t int
	m [][]float64
	v [][]float64
}

// NewAdam creates an optimizer with standard defaults for unset fields.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one update to the parameters using their accumulated
// gradients multiplied by scale (e.g. 1/batchSize), then zeroes gradients.
func (a *Adam) Step(params []Param, scale float64) {
	if a.m == nil {
		a.m = make([][]float64, len(params))
		a.v = make([][]float64, len(params))
		for i, p := range params {
			a.m[i] = make([]float64, len(p.W))
			a.v[i] = make([]float64, len(p.W))
		}
	}
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range params {
		m, v := a.m[i], a.v[i]
		for j := range p.W {
			g := p.G[j] * scale
			m[j] = a.Beta1*m[j] + (1-a.Beta1)*g
			v[j] = a.Beta2*v[j] + (1-a.Beta2)*g*g
			p.W[j] -= a.LR * (m[j] / bc1) / (math.Sqrt(v[j]/bc2) + a.Eps)
			p.G[j] = 0
		}
	}
}

// ZeroGrads clears accumulated gradients without an update.
func ZeroGrads(params []Param) {
	for _, p := range params {
		clear(p.G)
	}
}

// AccumulateGrads adds src's gradient accumulators into dst's, pairwise.
// Parameter lists must be congruent (same layout), as produced by Replica.
// The addition order is fixed by the parameter layout, so a reduction built
// from AccumulateGrads calls in a deterministic sequence is bit-reproducible.
func AccumulateGrads(dst, src []Param) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("nn: accumulate %d params into %d", len(src), len(dst)))
	}
	for i := range dst {
		dg, sg := dst[i].G, src[i].G
		if len(dg) != len(sg) {
			panic(fmt.Sprintf("nn: param %d size mismatch: %d vs %d", i, len(dg), len(sg)))
		}
		for j := range dg {
			dg[j] += sg[j]
		}
	}
}
