package ml

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"quanterference/internal/dataset"
	"quanterference/internal/nn"
	"quanterference/internal/sim"
)

func inferTestDataset(n int) *dataset.Dataset {
	names := make([]string, 6)
	for i := range names {
		names[i] = "f"
	}
	ds := dataset.New(names, 3, 2)
	rng := sim.NewRNG(11)
	for i := 0; i < n; i++ {
		vecs := make([][]float64, 3)
		for t := range vecs {
			v := make([]float64, 6)
			for f := range v {
				v[f] = rng.NormFloat64()
			}
			vecs[t] = v
		}
		ds.Add(&dataset.Sample{Label: i % 2, Degradation: 1, Vectors: vecs})
	}
	return ds
}

// forwardProbs is the reference ProbsInto is pinned to: the softmax of the
// model's training forward pass, after which a zero-gradient backward pops
// the layer caches it pushed, and the accumulators that backward created are
// dropped again.
func forwardProbs(m Model, vectors [][]float64) []float64 {
	var p []float64
	switch t := m.(type) {
	case *KernelModel:
		p = nn.Softmax(t.forward(vectors))
		t.Head.BackwardNoDX(make([]float64, t.classes))
		for range vectors {
			t.Kernel.BackwardNoDX([]float64{0})
		}
	case *FlatModel:
		p = nn.Softmax(t.Net.Forward(t.flatten(vectors)))
		t.Net.BackwardNoDX(make([]float64, t.classes))
	case *AttentionModel:
		st := t.forward(vectors)
		p = nn.Softmax(st.logits)
		t.backward(st, make([]float64, t.classes))
	default:
		panic(fmt.Sprintf("forwardProbs: unknown model %T", m))
	}
	m.(gradModel).dropGrads()
	return p
}

// TestProbsIntoMatchesProbs pins the single inference path: for every model
// kind, ProbsInto produces distributions bit-identical to the softmax of the
// training forward pass, allocation-free after warm-up, and interleaves
// safely with training passes.
func TestProbsIntoMatchesProbs(t *testing.T) {
	ds := inferTestDataset(32)
	models := map[string]Model{
		"kernel":    NewKernelModel(KernelConfig{NTargets: 3, NFeat: 6, Classes: 2, Seed: 5}),
		"flat":      NewFlatModel(3, 6, 2, 5),
		"attention": NewAttentionModel(AttentionConfig{NTargets: 3, NFeat: 6, Classes: 2, Seed: 5}),
	}
	for name, m := range models {
		t.Run(name, func(t *testing.T) {
			Train(m, ds, TrainConfig{Epochs: 2, Seed: 1})
			dst := make([]float64, 2)
			for _, s := range ds.Samples {
				want := forwardProbs(m, s.Vectors)
				got := m.ProbsInto(dst, s.Vectors)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("probs[%d]: ProbsInto %v != forward %v", i, got[i], want[i])
					}
				}
			}
			// Training after inference-only passes must still work (no
			// leftover caches).
			Train(m, ds, TrainConfig{Epochs: 1, Seed: 2})
			vecs := ds.Samples[0].Vectors
			if allocs := testing.AllocsPerRun(100, func() { m.ProbsInto(dst, vecs) }); allocs != 0 {
				t.Fatalf("ProbsInto allocates %v per call, want 0", allocs)
			}
		})
	}
}

// TestDims covers the shape reporting the serving layer validates against.
func TestDims(t *testing.T) {
	m := NewKernelModel(KernelConfig{NTargets: 7, NFeat: 34, Classes: 3, Seed: 1})
	nT, nF, cls, ok := Dims(m)
	if !ok || nT != 7 || nF != 34 || cls != 3 {
		t.Fatalf("Dims(kernel) = %d, %d, %d, %v", nT, nF, cls, ok)
	}
	if _, _, _, ok := Dims(nil); ok {
		t.Fatal("Dims(nil) reported ok")
	}
}

// TestTrainCtxCancellation: a cancelled context stops the epoch loop on both
// training paths, and an uncancelled TrainCtx matches Train bit-for-bit.
func TestTrainCtxCancellation(t *testing.T) {
	ds := inferTestDataset(32)
	for _, workers := range []int{0, 2} {
		newM := func() *KernelModel {
			return NewKernelModel(KernelConfig{NTargets: 3, NFeat: 6, Classes: 2, Seed: 9})
		}
		// Cancel after 2 epochs via OnEpoch.
		ctx, cancel := context.WithCancel(context.Background())
		epochs := 0
		_, err := TrainCtx(ctx, newM(), ds, TrainConfig{
			Epochs: 50, Seed: 1, Workers: workers,
			OnEpoch: func(epoch int, loss float64) {
				epochs++
				if epoch == 1 {
					cancel()
				}
			},
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if epochs != 2 {
			t.Fatalf("workers=%d: ran %d epochs after cancel at epoch 1", workers, epochs)
		}
		// Uncancelled: identical weights to Train.
		a, b := newM(), newM()
		Train(a, ds, TrainConfig{Epochs: 3, Seed: 1, Workers: workers})
		if _, err := TrainCtx(context.Background(), b, ds, TrainConfig{Epochs: 3, Seed: 1, Workers: workers}); err != nil {
			t.Fatal(err)
		}
		pa, pb := a.Params(), b.Params()
		for i := range pa {
			for j := range pa[i].W {
				if math.Float64bits(pa[i].W[j]) != math.Float64bits(pb[i].W[j]) {
					t.Fatalf("workers=%d: weights diverge at param %d[%d]", workers, i, j)
				}
			}
		}
	}
}
