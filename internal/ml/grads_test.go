package ml

import (
	"context"
	"errors"
	"testing"

	"quanterference/internal/nn"
)

// gradBuffers counts the gradient accumulators a model holds: non-nil G in
// its Params, plus non-nil GW/GB in any Dense it reaches through its exported
// layers, so a stale Params cache cannot hide one.
func gradBuffers(t *testing.T, m any) int {
	t.Helper()
	var layers []nn.Layer
	var params []nn.Param
	switch mm := m.(type) {
	case *KernelModel:
		layers, params = []nn.Layer{mm.Kernel, mm.Head}, mm.Params()
	case *FlatModel:
		layers, params = []nn.Layer{mm.Net}, mm.Params()
	case *AttentionModel:
		layers, params = []nn.Layer{mm.Embed, mm.Wq, mm.Wk, mm.Wv, mm.Head}, mm.Params()
	case *KernelRegressor:
		layers, params = []nn.Layer{mm.Kernel, mm.Head}, mm.Params()
	default:
		t.Fatalf("gradBuffers: unknown model %T", m)
	}
	n := 0
	for _, p := range params {
		if p.G != nil {
			n++
		}
	}
	var walk func(nn.Layer)
	walk = func(l nn.Layer) {
		switch l := l.(type) {
		case *nn.Dense:
			if l.GW != nil {
				n++
			}
			if l.GB != nil {
				n++
			}
		case *nn.Sequential:
			for _, sub := range l.Layers {
				walk(sub)
			}
		}
	}
	for _, l := range layers {
		walk(l)
	}
	return n
}

// TestModelsHoldNoGradientsOutsideTraining pins the memory contract: a model
// that is not inside a training call holds weights and inference scratch
// only — whether it was constructed, restored, cloned, or trained (serially,
// sharded, or cancelled) and returned — while inside the call every
// parameter has its accumulator.
func TestModelsHoldNoGradientsOutsideTraining(t *testing.T) {
	ds := inferTestDataset(40)
	kinds := map[string]func() Model{
		"kernel": func() Model {
			return NewKernelModel(KernelConfig{NTargets: 3, NFeat: 6, Classes: 2, Seed: 4})
		},
		"flat": func() Model { return NewFlatModel(3, 6, 2, 4) },
		"attention": func() Model {
			return NewAttentionModel(AttentionConfig{NTargets: 3, NFeat: 6, Classes: 2, Seed: 4})
		},
	}
	none := func(t *testing.T, when string, m Model) {
		t.Helper()
		if n := gradBuffers(t, m); n != 0 {
			t.Fatalf("%s: %d gradient buffers, want none", when, n)
		}
	}
	for name, mk := range kinds {
		t.Run(name, func(t *testing.T) {
			m := mk()
			none(t, "constructed", m)
			if r := m.(Replicable).Replica(); gradBuffers(t, r) != 0 {
				t.Fatal("replica: has gradient buffers before training")
			}
			for _, workers := range []int{0, 1, 2} {
				during := 0
				Train(m, ds, TrainConfig{Epochs: 2, Seed: 3, Workers: workers,
					OnEpoch: func(int, float64) { during = gradBuffers(t, m) }})
				if want := 2 * len(m.Params()); during != want {
					t.Fatalf("workers=%d: %d gradient buffers inside Train, want %d", workers, during, want)
				}
				none(t, "trained", m)
			}
			spec, err := Snapshot(m)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := Restore(spec)
			if err != nil {
				t.Fatal(err)
			}
			none(t, "restored", restored)
			clone, err := CloneModel(m)
			if err != nil {
				t.Fatal(err)
			}
			none(t, "cloned", clone)
			for _, workers := range []int{0, 2} {
				ctx, cancel := context.WithCancel(context.Background())
				_, err := TrainCtx(ctx, clone, ds, TrainConfig{Epochs: 5, Seed: 3, Workers: workers,
					OnEpoch: func(int, float64) { cancel() }})
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
				}
				none(t, "cancelled", clone)
			}
		})
	}
}

// TestRegressorHoldsNoGradientsAfterTraining: TrainRegressor drops the
// accumulators its backward passes created.
func TestRegressorHoldsNoGradientsAfterTraining(t *testing.T) {
	m := NewKernelRegressor(4, 3, 2)
	if n := gradBuffers(t, m); n != 0 {
		t.Fatalf("constructed: %d gradient buffers", n)
	}
	during := 0
	TrainRegressor(m, regressionDataset(64, 5), TrainConfig{Epochs: 2, Seed: 1,
		OnEpoch: func(int, float64) { during = gradBuffers(t, m) }})
	if during == 0 {
		t.Fatal("no gradient buffers inside TrainRegressor")
	}
	if n := gradBuffers(t, m); n != 0 {
		t.Fatalf("trained: %d gradient buffers", n)
	}
}

// TestTrainBatchLoopAllocatesNothing: the cost of holding gradients only
// while training is a fixed number of allocations per Train call, never per
// batch — an epoch over four times the batches allocates exactly as much.
func TestTrainBatchLoopAllocatesNothing(t *testing.T) {
	small, large := inferTestDataset(128), inferTestDataset(512)
	for name, m := range map[string]Model{
		"kernel": NewKernelModel(KernelConfig{NTargets: 3, NFeat: 6, Classes: 2, Seed: 4}),
		"flat":   NewFlatModel(3, 6, 2, 4),
	} {
		cfg := TrainConfig{Epochs: 1, Seed: 1}
		a := testing.AllocsPerRun(5, func() { Train(m, small, cfg) })
		b := testing.AllocsPerRun(5, func() { Train(m, large, cfg) })
		if a != b {
			t.Errorf("%s: Train allocates %v over 4 batches but %v over 16", name, a, b)
		}
	}
}
