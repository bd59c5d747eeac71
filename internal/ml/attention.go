package ml

import (
	"math"

	"quanterference/internal/nn"
	"quanterference/internal/sim"
)

// AttentionModel implements the paper's stated future direction ("other
// possible network architectures, such as transformers"): a single-head
// self-attention block over the per-server vectors.
//
// Each server vector is embedded by a shared network (like the kernel
// model), the embeddings attend to each other — letting the model weigh,
// say, a loaded OST against the application's activity on a different OST —
// and the attended embeddings are mean-pooled into an MLP head. Unlike the
// kernel and flat models, the architecture is permutation-equivariant over
// servers up to the pooling, so it shares the kernel model's placement
// invariance while modelling cross-server interactions explicitly.
type AttentionModel struct {
	Embed      *nn.Sequential // per-server vector -> d
	Wq, Wk, Wv *nn.Dense      // d -> d projections
	Head       *nn.Sequential // d -> classes

	nTargets int
	nFeat    int
	classes  int

	ce  nn.CEScratch
	inf *attnState // ProbsInto scratch, allocated on first use
	paramCache
}

func newAttentionModel(embed *nn.Sequential, wq, wk, wv *nn.Dense, head *nn.Sequential,
	nTargets, nFeat, classes int) *AttentionModel {
	return &AttentionModel{
		Embed: embed, Wq: wq, Wk: wk, Wv: wv, Head: head,
		nTargets: nTargets, nFeat: nFeat, classes: classes,
		paramCache: newParamCache(embed, wq, wk, wv, head),
	}
}

// Replica implements Replicable: the returned model shares every weight
// tensor with m but owns private gradients, caches, and scratch.
func (m *AttentionModel) Replica() Model {
	return newAttentionModel(m.Embed.Replica(),
		m.Wq.Replica(), m.Wk.Replica(), m.Wv.Replica(), m.Head.Replica(),
		m.nTargets, m.nFeat, m.classes)
}

// attnDim is the attention model's embedding width.
const attnDim = 16

// AttentionConfig sizes the model's inputs and outputs; the hidden widths
// are fixed (see NewAttentionModel).
type AttentionConfig struct {
	NTargets int
	NFeat    int
	Classes  int
	Seed     int64
}

// NewAttentionModel builds the model: a shared NFeat→32→16 embedder, 16×16
// query, key and value projections, and a 16→16→Classes head.
func NewAttentionModel(cfg AttentionConfig) *AttentionModel {
	if cfg.NTargets <= 0 || cfg.NFeat <= 0 || cfg.Classes < 2 {
		panic("ml: bad attention model config")
	}
	rng := sim.NewRNG(cfg.Seed ^ 0xa77e)
	// Construction order fixes the RNG draws: embedder, Q, K, V, head.
	embed := nn.MLP(rng, cfg.NFeat, 32, attnDim)
	wq := nn.NewDense(attnDim, attnDim, rng)
	wk := nn.NewDense(attnDim, attnDim, rng)
	wv := nn.NewDense(attnDim, attnDim, rng)
	head := nn.MLP(rng, attnDim, 16, cfg.Classes)
	return newAttentionModel(embed, wq, wk, wv, head, cfg.NTargets, cfg.NFeat, cfg.Classes)
}

// attnState holds one pass's attention intermediates: the training forward
// keeps them for the hand-written backward, ProbsInto reuses one as scratch.
type attnState struct {
	q, k, v [][]float64 // n x d
	attn    [][]float64 // n x n, row-softmaxed
	pooled  []float64   // d, row mean of attn·v
	logits  []float64
}

// grid allocates a rows x cols matrix.
func grid(rows, cols int) [][]float64 {
	g := make([][]float64, rows)
	for i := range g {
		g[i] = make([]float64, cols)
	}
	return g
}

func (m *AttentionModel) check(vectors [][]float64) {
	if len(vectors) != m.nTargets {
		panic("ml: wrong target count")
	}
}

// forward computes logits, leaving layer caches in place for backward.
func (m *AttentionModel) forward(vectors [][]float64) *attnState {
	m.check(vectors)
	n := m.nTargets
	st := &attnState{
		q: make([][]float64, n), k: make([][]float64, n), v: make([][]float64, n),
		attn: grid(n, n), pooled: make([]float64, attnDim),
	}
	// Shared embedding then Q/K/V projections, row by row (LIFO caches).
	embedded := make([][]float64, n)
	for i, x := range vectors {
		embedded[i] = m.Embed.Forward(x)
	}
	for i := 0; i < n; i++ {
		st.q[i] = m.Wq.Forward(embedded[i])
	}
	for i := 0; i < n; i++ {
		st.k[i] = m.Wk.Forward(embedded[i])
	}
	for i := 0; i < n; i++ {
		st.v[i] = m.Wv.Forward(embedded[i])
	}
	m.attend(st)
	st.logits = m.Head.Forward(st.pooled)
	return st
}

// ProbsInto implements Model: forward's arithmetic on nn's Infer path, with
// no caches pushed and no backward pass to pop them. A layer's Infer result
// is overwritten by its next call, so each projection row is copied into
// the model's private scratch.
func (m *AttentionModel) ProbsInto(dst []float64, vectors [][]float64) []float64 {
	m.check(vectors)
	if m.inf == nil {
		n, d := m.nTargets, attnDim
		m.inf = &attnState{
			q: grid(n, d), k: grid(n, d), v: grid(n, d),
			attn: grid(n, n), pooled: make([]float64, d),
		}
	}
	st := m.inf
	for i, x := range vectors {
		e := m.Embed.Infer(x)
		copy(st.q[i], m.Wq.Infer(e))
		copy(st.k[i], m.Wk.Infer(e))
		copy(st.v[i], m.Wv.Infer(e))
	}
	m.attend(st)
	return nn.SoftmaxInto(dst, m.Head.Infer(st.pooled))
}

// attend fills st.attn with the row-softmaxed scaled dot-product scores of
// st.q against st.k and st.pooled with the row mean of attn·v. forward and
// ProbsInto both run it, so the two paths agree bit for bit.
func (m *AttentionModel) attend(st *attnState) {
	n, d := m.nTargets, attnDim
	invSqrt := 1 / math.Sqrt(float64(d))
	for i := 0; i < n; i++ {
		scores := st.attn[i]
		for j := 0; j < n; j++ {
			var s float64
			for a := 0; a < d; a++ {
				s += st.q[i][a] * st.k[j][a]
			}
			scores[j] = s * invSqrt
		}
		// SoftmaxInto reads each score before overwriting it, so
		// normalizing in place is exact.
		nn.SoftmaxInto(scores, scores)
	}
	pooled := st.pooled
	clear(pooled)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			aij := st.attn[i][j]
			for a := 0; a < d; a++ {
				pooled[a] += aij * st.v[j][a]
			}
		}
	}
	for a := range pooled {
		pooled[a] /= float64(n)
	}
}

// backward propagates dlogits through the attention block and all layers,
// accumulating parameter gradients and consuming the forward caches.
func (m *AttentionModel) backward(st *attnState, dlogits []float64) {
	m.ensureGrads()
	n, d := m.nTargets, attnDim
	dpooled := m.Head.Backward(dlogits)
	// dZ[i][a] = dpooled[a]/n for every row i.
	dZrow := make([]float64, d)
	for a := 0; a < d; a++ {
		dZrow[a] = dpooled[a] / float64(n)
	}
	// dV[j] = sum_i A[i][j] * dZ[i]; dA[i][j] = dZ[i] . V[j].
	dV := grid(n, d)
	dS := make([][]float64, n) // gradient on pre-softmax scores
	invSqrt := 1 / math.Sqrt(float64(d))
	for i := 0; i < n; i++ {
		dA := make([]float64, n)
		for j := 0; j < n; j++ {
			var s float64
			for a := 0; a < d; a++ {
				s += dZrow[a] * st.v[j][a]
			}
			dA[j] = s
			aij := st.attn[i][j]
			for a := 0; a < d; a++ {
				dV[j][a] += aij * dZrow[a]
			}
		}
		// Softmax backward: dS = (dA - (dA.A)) * A, scaled.
		var dot float64
		for j := 0; j < n; j++ {
			dot += dA[j] * st.attn[i][j]
		}
		row := make([]float64, n)
		for j := 0; j < n; j++ {
			row[j] = (dA[j] - dot) * st.attn[i][j] * invSqrt
		}
		dS[i] = row
	}
	// dQ[i] = sum_j dS[i][j] K[j]; dK[j] = sum_i dS[i][j] Q[i].
	dQ, dK := grid(n, d), grid(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			g := dS[i][j]
			for a := 0; a < d; a++ {
				dQ[i][a] += g * st.k[j][a]
				dK[j][a] += g * st.q[i][a]
			}
		}
	}
	// Projections were forwarded Q rows, then K rows, then V rows: the
	// per-layer caches are independent stacks, so each unwinds in reverse
	// row order; the embedder's stack unwinds rows in reverse with the
	// three projection contributions summed.
	dEmbed := make([][]float64, n)
	for i := n - 1; i >= 0; i-- {
		dEmbed[i] = m.Wv.Backward(dV[i])
	}
	for i := n - 1; i >= 0; i-- {
		dx := m.Wk.Backward(dK[i])
		for a := 0; a < d; a++ {
			dEmbed[i][a] += dx[a]
		}
	}
	for i := n - 1; i >= 0; i-- {
		dx := m.Wq.Backward(dQ[i])
		for a := 0; a < d; a++ {
			dEmbed[i][a] += dx[a]
		}
	}
	for i := n - 1; i >= 0; i-- {
		m.Embed.BackwardNoDX(dEmbed[i])
	}
}

// LossAndGrad implements Model.
func (m *AttentionModel) LossAndGrad(vectors [][]float64, label int, weight float64) float64 {
	st := m.forward(vectors)
	loss, dlogits := m.ce.SoftmaxCE(st.logits, label, weight)
	m.backward(st, dlogits)
	return loss
}

// Params implements Model.
func (m *AttentionModel) Params() []nn.Param { return m.params }

var _ Replicable = (*AttentionModel)(nil)
