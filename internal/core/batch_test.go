package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"quanterference/internal/dataset"
	"quanterference/internal/ml"
	"quanterference/internal/monitor/window"
	"quanterference/internal/sim"
)

// syntheticFramework trains a tiny framework on random data without running
// the simulator, keeping the batch and context tests fast.
func syntheticFramework(tb testing.TB, nTargets, nFeat, classes int) (*Framework, []window.Matrix) {
	tb.Helper()
	names := make([]string, nFeat)
	for i := range names {
		names[i] = "f"
	}
	ds := dataset.New(names, nTargets, classes)
	rng := sim.NewRNG(7)
	for i := 0; i < 64; i++ {
		vecs := make([][]float64, nTargets)
		for t := range vecs {
			v := make([]float64, nFeat)
			for f := range v {
				v[f] = rng.NormFloat64() + float64(i%classes)
			}
			vecs[t] = v
		}
		ds.Add(&dataset.Sample{Label: i % classes, Degradation: 1, Vectors: vecs})
	}
	fw, _, err := TrainFrameworkE(ds, FrameworkConfig{Seed: 3, Train: ml.TrainConfig{Epochs: 5}})
	if err != nil {
		tb.Fatal(err)
	}
	rng2 := sim.NewRNG(8)
	mats := make([]window.Matrix, 48)
	for i := range mats {
		mat := make(window.Matrix, nTargets)
		for t := range mat {
			v := make([]float64, nFeat)
			for f := range v {
				v[f] = rng2.NormFloat64() * 2
			}
			mat[t] = v
		}
		mats[i] = mat
	}
	return fw, mats
}

// TestPredictBatchMatchesPredict pins the batching contract: an input's class
// and probability bits do not depend on the batch it arrives in, Predict
// returns probabilities the caller owns, and the steady state allocates
// nothing.
func TestPredictBatchMatchesPredict(t *testing.T) {
	fw, mats := syntheticFramework(t, 3, 5, 2)
	if c := fw.Classes(); c != 2 {
		t.Fatalf("Classes() = %d", c)
	}
	if nT, nF := fw.Dims(); nT != 3 || nF != 5 {
		t.Fatalf("Dims() = %d, %d", nT, nF)
	}
	// Reference: every input classified on its own.
	wantCls := make([]int, len(mats))
	wantProbs := make([][]float64, len(mats))
	for m, mat := range mats {
		wantCls[m], wantProbs[m] = fw.Predict(mat)
	}
	for _, size := range []int{1, 5, 32, len(mats)} {
		batch := mats[:size]
		cls, probs := fw.PredictBatch(batch)
		if len(cls) != size || len(probs) != size {
			t.Fatalf("size %d: got %d classes, %d prob rows", size, len(cls), len(probs))
		}
		for m := range batch {
			if cls[m] != wantCls[m] {
				t.Fatalf("size %d input %d: batch class %d != alone %d", size, m, cls[m], wantCls[m])
			}
			for i := range wantProbs[m] {
				if math.Float64bits(probs[m][i]) != math.Float64bits(wantProbs[m][i]) {
					t.Fatalf("size %d input %d prob %d: %v != alone %v",
						size, m, i, probs[m][i], wantProbs[m][i])
				}
			}
		}
	}
	// Predict's probabilities survive later batches on the same framework.
	_, kept := fw.Predict(mats[0])
	fw.PredictBatch(mats[1:])
	for i := range kept {
		if math.Float64bits(kept[i]) != math.Float64bits(wantProbs[0][i]) {
			t.Fatalf("prob %d of an earlier Predict changed to %v after PredictBatch", i, kept[i])
		}
	}
	// Shrinking then regrowing the batch must reuse scratch: zero allocations.
	fw.PredictBatch(mats)
	if allocs := testing.AllocsPerRun(50, func() { fw.PredictBatch(mats) }); allocs != 0 {
		t.Fatalf("PredictBatch allocates %v per call at steady state, want 0", allocs)
	}
	if cls, probs := fw.PredictBatch(nil); len(cls) != 0 || len(probs) != 0 {
		t.Fatal("empty batch returned results")
	}
}

// TestRunCtxCanceled: a done context stops the simulation at the next window
// boundary with an error matching both ErrCanceled and the context's error.
func TestRunCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunCtx(ctx, Scenario{Target: smallTarget()})
	if res != nil || err == nil {
		t.Fatalf("RunCtx(canceled) = %v, %v", res, err)
	}
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v does not match ErrCanceled and context.Canceled", err)
	}
	// Uncancelled RunCtx behaves exactly like RunE.
	if _, err := RunCtx(context.Background(), Scenario{Target: smallTarget()}); err != nil {
		t.Fatal(err)
	}
}

// TestCollectDatasetCtxCanceled: cancellation surfaces as ErrCanceled, never
// as ErrAllVariantsFailed.
func TestCollectDatasetCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	base := Scenario{Target: smallTarget()}
	variants := []Variant{{Interference: []InterferenceSpec{readInterference("/bg", 2)}}}
	_, err := CollectDatasetCtx(ctx, base, variants, CollectorConfig{})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v does not match ErrCanceled and context.Canceled", err)
	}
	if errors.Is(err, ErrAllVariantsFailed) {
		t.Fatalf("cancellation disguised as ErrAllVariantsFailed: %v", err)
	}
}

// TestTrainFrameworkCtxCanceled: cancelling mid-training stops the epoch loop
// and reports ErrCanceled.
func TestTrainFrameworkCtxCanceled(t *testing.T) {
	names := []string{"a", "b"}
	ds := dataset.New(names, 2, 2)
	rng := sim.NewRNG(2)
	for i := 0; i < 20; i++ {
		ds.Add(&dataset.Sample{Label: i % 2, Degradation: 1, Vectors: [][]float64{
			{rng.NormFloat64(), rng.NormFloat64()},
			{rng.NormFloat64(), rng.NormFloat64()},
		}})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cfg := FrameworkConfig{Seed: 1, Train: ml.TrainConfig{
		Epochs:  100,
		OnEpoch: func(epoch int, loss float64) { cancel() },
	}}
	_, _, err := TrainFrameworkCtx(ctx, ds, cfg)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v does not match ErrCanceled and context.Canceled", err)
	}
}
