package ml

import (
	"math"
	"testing"

	"quanterference/internal/nn"
)

func attnFixture() (*AttentionModel, [][]float64) {
	m := NewAttentionModel(AttentionConfig{
		NTargets: 3, NFeat: 4, Classes: 2, Seed: 7,
	})
	vectors := [][]float64{
		{0.5, -1.2, 0.3, 2.0},
		{1.5, 0.2, -0.7, 0.0},
		{-0.4, 0.9, 1.1, -1.3},
	}
	return m, vectors
}

// TestAttentionGradCheck verifies the hand-written attention backward
// against finite differences on every parameter.
func TestAttentionGradCheck(t *testing.T) {
	m, vectors := attnFixture()
	label := 1
	lossFn := func() float64 {
		st := m.forward(vectors)
		l, _ := nn.SoftmaxCE(st.logits, label, 1)
		m.backward(st, make([]float64, 2))
		nn.ZeroGrads(m.Params())
		return l
	}
	// Analytic pass.
	st := m.forward(vectors)
	_, dlogits := nn.SoftmaxCE(st.logits, label, 1)
	m.backward(st, dlogits)
	analytic := make([][]float64, len(m.Params()))
	for i, p := range m.Params() {
		analytic[i] = append([]float64(nil), p.G...)
	}
	nn.ZeroGrads(m.Params())
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
				t.Fatalf("param %d[%d]: analytic %g vs numeric %g",
					pi, j, analytic[pi][j], numeric)
			}
		}
	}
}

func TestAttentionProbsValid(t *testing.T) {
	m, vectors := attnFixture()
	p := append([]float64(nil), m.ProbsInto(make([]float64, 2), vectors)...)
	var sum float64
	for _, v := range p {
		if v < 0 || v > 1 || math.IsNaN(v) {
			t.Fatalf("bad prob %v", p)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("sum=%f", sum)
	}
	// Inference is repeatable and leaves no gradients behind.
	dst := make([]float64, 2)
	for i := 0; i < 5; i++ {
		m.ProbsInto(dst, vectors)
		for c := range p {
			if math.Float64bits(dst[c]) != math.Float64bits(p[c]) {
				t.Fatal("inference unstable")
			}
		}
	}
	for _, prm := range m.Params() {
		for _, g := range prm.G {
			if g != 0 {
				t.Fatal("inference leaked gradients")
			}
		}
	}
}

func TestAttentionLearnsInteraction(t *testing.T) {
	d := synthDataset(1000, 4, 6, 77)
	train, test := d.Split(0.2, 1)
	m := NewAttentionModel(AttentionConfig{NTargets: 4, NFeat: 6, Classes: 2, Seed: 3})
	Train(m, train, TrainConfig{Epochs: 80, Seed: 4})
	if acc := Evaluate(m, test).Accuracy(); acc < 0.85 {
		t.Fatalf("attention model accuracy %.3f", acc)
	}
}

func TestAttentionPermutationPooling(t *testing.T) {
	// With mean pooling over attended rows, permuting the server order
	// must not change the prediction (a stronger invariance than the
	// kernel model's, whose head has positional weights).
	m, vectors := attnFixture()
	p1 := m.ProbsInto(make([]float64, 2), vectors)
	permuted := [][]float64{vectors[2], vectors[0], vectors[1]}
	p2 := m.ProbsInto(make([]float64, 2), permuted)
	for i := range p1 {
		if math.Abs(p1[i]-p2[i]) > 1e-9 {
			t.Fatalf("not permutation invariant: %v vs %v", p1, p2)
		}
	}
}
