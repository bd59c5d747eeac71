package nn

import (
	"math"
	"testing"

	"quanterference/internal/sim"
)

func TestDenseForwardShapeAndAffine(t *testing.T) {
	d := NewDense(2, 3, sim.NewRNG(1))
	// Set known weights: W = [[1,2],[3,4],[5,6]], b = [1,1,1].
	copy(d.W, []float64{1, 2, 3, 4, 5, 6})
	copy(d.B, []float64{1, 1, 1})
	y := d.Forward([]float64{1, -1})
	want := []float64{0, 0, 0}
	want[0] = 1*1 + 2*-1 + 1
	want[1] = 3*1 + 4*-1 + 1
	want[2] = 5*1 + 6*-1 + 1
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y=%v, want %v", y, want)
		}
	}
}

func TestDenseWrongInputPanics(t *testing.T) {
	d := NewDense(2, 1, sim.NewRNG(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Forward([]float64{1, 2, 3})
}

// TestGradientsExistOnlyWhileTraining: a new or replicated layer holds its
// weights only; Backward creates zeroed accumulators on demand and fills
// them, AllocGrads creates them up front, and DropGrads releases them.
func TestGradientsExistOnlyWhileTraining(t *testing.T) {
	noGrads := func(when string, l Layer) {
		t.Helper()
		for i, p := range l.Params() {
			if p.G != nil {
				t.Fatalf("%s: param %d has a gradient buffer", when, i)
			}
		}
	}
	d := NewDense(3, 2, sim.NewRNG(1))
	rep := d.Replica()
	noGrads("new", d)
	noGrads("replica", rep)
	x := []float64{1, 2, 3}
	d.Forward(x)
	d.Backward([]float64{1, -1})
	wantGW := []float64{1, 2, 3, -1, -2, -3}
	for i, w := range wantGW {
		if d.GW[i] != w {
			t.Fatalf("GW = %v after one backward, want %v", d.GW, wantGW)
		}
	}
	if d.GB[0] != 1 || d.GB[1] != -1 {
		t.Fatalf("GB = %v after one backward, want [1 -1]", d.GB)
	}
	noGrads("replica after the original's backward", rep)
	d.DropGrads()
	noGrads("dropped", d)

	mlp := MLP(sim.NewRNG(2), 4, 5, 3)
	mlp.AllocGrads()
	for i, p := range mlp.Params() {
		if len(p.G) != len(p.W) {
			t.Fatalf("param %d: AllocGrads gave %d accumulators for %d weights", i, len(p.G), len(p.W))
		}
	}
	mlp.DropGrads()
	noGrads("dropped MLP", mlp)
}

func snapshotGrads(params []Param) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		out[i] = append([]float64(nil), p.G...)
	}
	return out
}

// numericalGrad estimates dLoss/dw for a scalar loss function.
func numericalGrad(w *float64, loss func() float64) float64 {
	const h = 1e-6
	orig := *w
	*w = orig + h
	lp := loss()
	*w = orig - h
	lm := loss()
	*w = orig
	return (lp - lm) / (2 * h)
}

// TestGradCheckMLP verifies hand-written backprop against finite
// differences on a small MLP with softmax CE loss.
func TestGradCheckMLP(t *testing.T) {
	rng := sim.NewRNG(3)
	mlp := MLP(rng, 4, 5, 3)
	x := []float64{0.5, -1.2, 2.0, 0.1}
	label := 2
	lossFn := func() float64 {
		out := mlp.Forward(x)
		l, _ := SoftmaxCE(out, label, 1)
		// Drop the caches this evaluation pushed.
		_, _ = l, mlp.Backward(make([]float64, 3))
		ZeroGrads(mlp.Params())
		return l
	}
	// Analytic gradients, snapshotted before lossFn (which zeroes them).
	out := mlp.Forward(x)
	_, dlogits := SoftmaxCE(out, label, 1)
	mlp.Backward(dlogits)
	analyticGrads := snapshotGrads(mlp.Params())
	for pi, p := range mlp.Params() {
		for j := range p.W {
			analytic := analyticGrads[pi][j]
			numeric := numericalGrad(&p.W[j], lossFn)
			if math.Abs(analytic-numeric) > 1e-4*(1+math.Abs(numeric)) {
				t.Fatalf("param %d[%d]: analytic %g vs numeric %g", pi, j, analytic, numeric)
			}
		}
	}
}

// TestGradCheckSharedApplication verifies gradient accumulation when the
// same network is applied multiple times before backward (the kernel-model
// pattern): backward must run in reverse forward order.
func TestGradCheckSharedApplication(t *testing.T) {
	rng := sim.NewRNG(9)
	kernel := MLP(rng, 3, 4, 1)
	xs := [][]float64{{1, 0, -1}, {0.5, 2, 0}, {-2, 1, 1}}
	// Loss: sum of squares of the three kernel outputs.
	lossFn := func() float64 {
		var l float64
		for _, x := range xs {
			y := kernel.Forward(x)[0]
			l += y * y
		}
		for range xs {
			kernel.Backward([]float64{0})
		}
		ZeroGrads(kernel.Params())
		return l
	}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = kernel.Forward(x)[0]
	}
	for i := len(xs) - 1; i >= 0; i-- {
		kernel.Backward([]float64{2 * ys[i]})
	}
	analyticGrads := snapshotGrads(kernel.Params())
	for pi, p := range kernel.Params() {
		for j := range p.W {
			analytic := analyticGrads[pi][j]
			numeric := numericalGrad(&p.W[j], lossFn)
			if math.Abs(analytic-numeric) > 1e-4*(1+math.Abs(numeric)) {
				t.Fatalf("shared param %d[%d]: analytic %g vs numeric %g", pi, j, analytic, numeric)
			}
		}
	}
}

func TestReLUMasksNegatives(t *testing.T) {
	r := &ReLU{}
	y := r.Forward([]float64{-1, 0, 2})
	if y[0] != 0 || y[1] != 0 || y[2] != 2 {
		t.Fatalf("relu forward %v", y)
	}
	dx := r.Backward([]float64{5, 5, 5})
	if dx[0] != 0 || dx[1] != 0 || dx[2] != 5 {
		t.Fatalf("relu backward %v", dx)
	}
}

func TestSoftmaxProperties(t *testing.T) {
	p := Softmax([]float64{1, 2, 3})
	var sum float64
	for _, v := range p {
		if v <= 0 || v >= 1 {
			t.Fatalf("prob out of range: %v", p)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("sum=%f", sum)
	}
	if !(p[2] > p[1] && p[1] > p[0]) {
		t.Fatalf("ordering: %v", p)
	}
	// Numerical stability with huge logits.
	p = Softmax([]float64{1000, 1001})
	if math.IsNaN(p[0]) || math.IsInf(p[1], 0) {
		t.Fatalf("unstable softmax: %v", p)
	}
}

func TestSoftmaxCEGradientSigns(t *testing.T) {
	loss, grad := SoftmaxCE([]float64{0, 0}, 1, 1)
	if loss <= 0 {
		t.Fatalf("loss=%f", loss)
	}
	if grad[1] >= 0 || grad[0] <= 0 {
		t.Fatalf("gradient direction wrong: %v", grad)
	}
	// Weight scales both loss and grad.
	loss2, grad2 := SoftmaxCE([]float64{0, 0}, 1, 2)
	if math.Abs(loss2-2*loss) > 1e-12 || math.Abs(grad2[0]-2*grad[0]) > 1e-12 {
		t.Fatal("weight not applied")
	}
}

func TestAdamLearnsXOR(t *testing.T) {
	rng := sim.NewRNG(5)
	mlp := MLP(rng, 2, 8, 2)
	opt := NewAdam(0.01)
	data := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	labels := []int{0, 1, 1, 0}
	for epoch := 0; epoch < 500; epoch++ {
		for i, x := range data {
			out := mlp.Forward(x)
			_, dl := SoftmaxCE(out, labels[i], 1)
			mlp.Backward(dl)
		}
		opt.Step(mlp.Params(), 1.0/4)
	}
	for i, x := range data {
		out := mlp.Forward(x)
		pred := 0
		if out[1] > out[0] {
			pred = 1
		}
		mlp.Backward(make([]float64, 2)) // drain cache
		ZeroGrads(mlp.Params())
		if pred != labels[i] {
			t.Fatalf("XOR not learned at %v: logits %v", x, out)
		}
	}
}

func TestBackwardWithoutForwardPanics(t *testing.T) {
	d := NewDense(1, 1, sim.NewRNG(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Backward([]float64{1})
}

func TestMLPTooFewSizesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MLP(sim.NewRNG(1), 4)
}
