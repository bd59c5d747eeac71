package ml

import (
	"math"
	"testing"

	"quanterference/internal/dataset"
	"quanterference/internal/sim"
)

// synthDataset builds a dataset whose label depends on an interaction
// between "client" activity and "server" load on the same target — the
// structure the kernel model must learn. Labels: 1 iff any target has both
// high client activity and high server queue.
func synthDataset(n, nTargets, nFeat int, seed int64) *dataset.Dataset {
	names := make([]string, nFeat)
	for i := range names {
		names[i] = "f"
	}
	d := dataset.New(names, nTargets, 2)
	rng := sim.NewRNG(seed)
	for i := 0; i < n; i++ {
		vecs := make([][]float64, nTargets)
		label := 0
		for t := range vecs {
			v := make([]float64, nFeat)
			for f := range v {
				v[f] = rng.NormFloat64() * 0.3
			}
			active := rng.Float64() < 0.4
			loaded := rng.Float64() < 0.4
			if active {
				v[0] = 2 + rng.Float64()
			}
			if loaded {
				v[1] = 2 + rng.Float64()
			}
			if active && loaded {
				label = 1
			}
			vecs[t] = v
		}
		d.Add(&dataset.Sample{Workload: "synth", Window: i, Label: label,
			Degradation: float64(1 + 3*label), Vectors: vecs})
	}
	return d
}

func TestKernelModelLearnsInteraction(t *testing.T) {
	d := synthDataset(1200, 4, 6, 42)
	train, test := d.Split(0.2, 1)
	m := NewKernelModel(KernelConfig{NTargets: 4, NFeat: 6, Classes: 2, Seed: 2})
	Train(m, train, TrainConfig{Epochs: 80, Seed: 3})
	cm := Evaluate(m, test)
	if f1 := cm.F1(1); f1 < 0.9 {
		t.Fatalf("kernel model F1=%.3f, want >=0.9\n%s", f1, cm.Render([]string{"<2x", ">=2x"}))
	}
}

func TestFlatModelAlsoLearns(t *testing.T) {
	d := synthDataset(1200, 4, 6, 43)
	train, test := d.Split(0.2, 1)
	m := NewFlatModel(4, 6, 2, 2)
	Train(m, train, TrainConfig{Epochs: 80, Seed: 3})
	if acc := Evaluate(m, test).Accuracy(); acc < 0.8 {
		t.Fatalf("flat model accuracy=%.3f", acc)
	}
}

func TestKernelSampleEfficiencyAcrossTargets(t *testing.T) {
	// §III-C motivation: applications hit different OST subsets in
	// different runs. With the interference signature appearing on a
	// random target each sample and little training data, the shared
	// kernel (which learns the signature once) should beat the flat MLP
	// (which must learn it separately per position).
	mk := func(n int, seed int64) *dataset.Dataset {
		names := []string{"a", "b", "c"}
		d := dataset.New(names, 6, 2)
		rng := sim.NewRNG(seed)
		for i := 0; i < n; i++ {
			vecs := make([][]float64, 6)
			for t := range vecs {
				vecs[t] = []float64{rng.NormFloat64() * 0.2, rng.NormFloat64() * 0.2, rng.NormFloat64() * 0.2}
			}
			label := 0
			if rng.Float64() < 0.5 {
				label = 1
				t := rng.Intn(6)
				vecs[t][0] = 3
				vecs[t][1] = 3
			}
			d.Add(&dataset.Sample{Workload: "x", Window: i, Label: label,
				Degradation: float64(1 + 3*label), Vectors: vecs})
		}
		return d
	}
	train := mk(240, 7)
	test := mk(400, 8)
	km := NewKernelModel(KernelConfig{NTargets: 6, NFeat: 3, Classes: 2, Seed: 5})
	Train(km, train, TrainConfig{Epochs: 60, Seed: 6})
	kAcc := Evaluate(km, test).Accuracy()
	fm := NewFlatModel(6, 3, 2, 5)
	Train(fm, train, TrainConfig{Epochs: 60, Seed: 6})
	fAcc := Evaluate(fm, test).Accuracy()
	t.Logf("kernel acc=%.3f flat acc=%.3f on %d training samples", kAcc, fAcc, train.Len())
	if kAcc < 0.85 {
		t.Fatalf("kernel model accuracy %.3f, want >=0.85", kAcc)
	}
	if kAcc < fAcc {
		t.Fatalf("kernel (%.3f) should not lose to flat (%.3f) here", kAcc, fAcc)
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	d := synthDataset(400, 3, 5, 11)
	m := NewKernelModel(KernelConfig{NTargets: 3, NFeat: 5, Classes: 2, Seed: 1})
	var losses []float64
	Train(m, d, TrainConfig{Epochs: 30, Seed: 2,
		OnEpoch: func(_ int, l float64) { losses = append(losses, l) }})
	if len(losses) != 30 {
		t.Fatalf("epochs=%d", len(losses))
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("loss did not decrease: %f -> %f", losses[0], losses[len(losses)-1])
	}
}

func TestPredictProbsConsistent(t *testing.T) {
	m := NewKernelModel(KernelConfig{NTargets: 2, NFeat: 3, Classes: 3, Seed: 9})
	vecs := [][]float64{{1, 2, 3}, {-1, 0, 1}}
	p := append([]float64(nil), m.ProbsInto(make([]float64, 3), vecs)...)
	var sum float64
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probs sum %f", sum)
	}
	// Inference must be repeatable and must not leak gradients.
	dst := make([]float64, 3)
	for i := 0; i < 10; i++ {
		m.ProbsInto(dst, vecs)
		for c := range p {
			if math.Float64bits(dst[c]) != math.Float64bits(p[c]) {
				t.Fatal("repeated inference unstable")
			}
		}
	}
	for _, prm := range m.Params() {
		for _, g := range prm.G {
			if g != 0 {
				t.Fatal("inference left gradients behind")
			}
		}
	}
}

func TestConfusionMetrics(t *testing.T) {
	c := NewConfusion(2)
	// 50 TN, 10 FP, 5 FN, 35 TP.
	for i := 0; i < 50; i++ {
		c.Add(0, 0)
	}
	for i := 0; i < 10; i++ {
		c.Add(0, 1)
	}
	for i := 0; i < 5; i++ {
		c.Add(1, 0)
	}
	for i := 0; i < 35; i++ {
		c.Add(1, 1)
	}
	if c.Total() != 100 {
		t.Fatalf("total=%d", c.Total())
	}
	if math.Abs(c.Accuracy()-0.85) > 1e-12 {
		t.Fatalf("accuracy=%f", c.Accuracy())
	}
	if math.Abs(c.Precision(1)-35.0/45) > 1e-12 {
		t.Fatalf("precision=%f", c.Precision(1))
	}
	if math.Abs(c.Recall(1)-35.0/40) > 1e-12 {
		t.Fatalf("recall=%f", c.Recall(1))
	}
	wantF1 := 2 * (35.0 / 45) * (35.0 / 40) / ((35.0 / 45) + (35.0 / 40))
	if math.Abs(c.F1(1)-wantF1) > 1e-12 {
		t.Fatalf("f1=%f want %f", c.F1(1), wantF1)
	}
}

func TestConfusionEmptyClassSafe(t *testing.T) {
	c := NewConfusion(3)
	c.Add(0, 0)
	if c.Precision(2) != 0 || c.Recall(2) != 0 || c.F1(2) != 0 {
		t.Fatal("empty class should give zero metrics, not NaN")
	}
	if math.IsNaN(c.MacroF1()) {
		t.Fatal("macro F1 NaN")
	}
}

func TestRenderContainsCounts(t *testing.T) {
	c := NewConfusion(2)
	c.Add(0, 0)
	c.Add(1, 1)
	out := c.Render([]string{"neg", "pos"})
	if len(out) == 0 || out[0] == 0 {
		t.Fatal("empty render")
	}
}

func TestClassWeightsHelpImbalance(t *testing.T) {
	// 9:1 imbalance; with weighting the minority recall should be decent.
	names := []string{"x"}
	d := dataset.New(names, 1, 2)
	rng := sim.NewRNG(3)
	for i := 0; i < 1000; i++ {
		label := 0
		x := rng.NormFloat64()*0.5 - 0.3
		if i%10 == 0 {
			label = 1
			x = rng.NormFloat64()*0.5 + 1.2
		}
		d.Add(&dataset.Sample{Window: i, Label: label, Degradation: 1,
			Vectors: [][]float64{{x}}})
	}
	train, test := d.Split(0.2, 4)
	m := NewKernelModel(KernelConfig{NTargets: 1, NFeat: 1, Classes: 2, Seed: 5})
	Train(m, train, TrainConfig{Epochs: 40, Seed: 6})
	if rec := Evaluate(m, test).Recall(1); rec < 0.7 {
		t.Fatalf("minority recall %f with class weights", rec)
	}
}
