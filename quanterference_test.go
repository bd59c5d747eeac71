// Tests of the public facade: everything a downstream user touches, wired
// through the root package exactly as README shows.
package quanterference_test

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	quant "quanterference"
	"quanterference/internal/workload/io500"
)

func facadeTarget(bytes int64) quant.TargetSpec {
	return quant.TargetSpec{
		Gen: io500.New(io500.IorEasyWrite, io500.Params{
			Dir: "/t", Ranks: 2, EasyFileBytes: bytes}),
		Nodes: []string{"c0"},
		Ranks: 2,
	}
}

func TestFacadeRun(t *testing.T) {
	res, err := quant.RunE(quant.Scenario{Target: facadeTarget(16 << 20)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished || len(res.Records) == 0 {
		t.Fatalf("run failed: %+v", res)
	}
}

func TestFacadeRunCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := quant.RunCtx(ctx, quant.Scenario{Target: facadeTarget(16 << 20)})
	if !errors.Is(err, quant.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
}

func TestFacadeCollectTrainPredictPersist(t *testing.T) {
	variants := []quant.Variant{
		{Name: "light"},
		{Name: "heavy", Interference: []quant.InterferenceSpec{{
			Gen: io500.New(io500.IorEasyRead, io500.Params{
				Dir: "/bg", Ranks: 6, EasyFileBytes: 16 << 20}),
			Nodes: []string{"c1", "c2"},
			Ranks: 6,
		}}},
	}
	ds, err := quant.CollectDatasetE(quant.Scenario{Target: facadeTarget(48 << 20)},
		variants, quant.CollectorConfig{IncludeBaseline: true})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() == 0 {
		t.Fatal("no samples")
	}
	fw, cm, err := quant.TrainFrameworkE(ds, quant.FrameworkConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cm.Total() == 0 {
		t.Fatal("no evaluation")
	}
	class, probs := fw.Predict(ds.Samples[0].Vectors)
	if class < 0 || class > 1 || len(probs) != 2 {
		t.Fatalf("prediction %d %v", class, probs)
	}
	// Batched inference through the facade matches one-at-a-time Predict.
	mats := []quant.WindowMatrix{ds.Samples[0].Vectors, ds.Samples[len(ds.Samples)-1].Vectors}
	cls, batchProbs := fw.PredictBatch(mats)
	if cls[0] != class || len(batchProbs) != 2 {
		t.Fatalf("PredictBatch disagrees: %v vs %d", cls, class)
	}
	// Persistence round trip through the facade.
	path := filepath.Join(t.TempDir(), "fw.json")
	if err := fw.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := quant.LoadFramework(path)
	if err != nil {
		t.Fatal(err)
	}
	gc, _ := got.Predict(ds.Samples[0].Vectors)
	if gc != class {
		t.Fatal("reloaded framework disagrees")
	}
}

func TestFacadeLiveMonitor(t *testing.T) {
	cl := quant.NewCluster(quant.PaperProfile())
	windows := 0
	mon := quant.AttachLive(cl, quant.Seconds(1), func(idx int, mat quant.WindowMatrix) {
		windows++
		if len(mat) != cl.FS.NumTargets() {
			t.Fatalf("bad matrix shape %d", len(mat))
		}
	})
	cl.Eng.RunUntil(quant.Seconds(3) + quant.Seconds(0.5))
	mon.Stop()
	if windows != 3 {
		t.Fatalf("windows=%d", windows)
	}
}

func TestFacadeBins(t *testing.T) {
	if quant.BinaryBins().Classes() != 2 || quant.SeverityBins().Classes() != 3 {
		t.Fatal("bins wrong")
	}
	if quant.SeverityBins().Label(3) != 1 {
		t.Fatal("labeling wrong")
	}
}
