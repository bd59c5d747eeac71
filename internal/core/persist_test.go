package core

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"quanterference/internal/dataset"
	"quanterference/internal/label"
	"quanterference/internal/ml"
	"quanterference/internal/monitor/window"
)

// rebinned saves a valid untrained framework over bins and returns the
// file's content with its thresholds replaced.
func rebinned(tb testing.TB, bins label.Bins, thresholds []float64) string {
	tb.Helper()
	fw := &Framework{
		Bins:   bins,
		Model:  ml.NewKernelModel(ml.KernelConfig{NTargets: 3, NFeat: 5, Classes: bins.Classes(), Seed: 1}),
		Scaler: &dataset.Scaler{Mean: make([]float64, 5), Std: []float64{1, 1, 1, 1, 1}},
	}
	path := filepath.Join(tb.TempDir(), "fw.json")
	if err := fw.Save(path); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	var spec frameworkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		tb.Fatal(err)
	}
	spec.Thresholds = thresholds
	if raw, err = json.Marshal(spec); err != nil {
		tb.Fatal(err)
	}
	return string(raw)
}

// FuzzLoadFramework throws arbitrary framework files at LoadFramework: any
// file it accepts must predict a well-shaped matrix and name the class —
// what /v1/predict does with every framework a reload installs — without
// panicking. Run with make fuzz.
func FuzzLoadFramework(f *testing.F) {
	for _, thresholds := range [][]float64{{2, 5}, {2}, {}, {5, 2}} {
		f.Add([]byte(rebinned(f, label.SeverityBins(), thresholds)))
	}
	f.Add([]byte(noScalerFramework(f)))
	f.Add([]byte(`{"format": "quanterference.framework", "version": 1}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "fw.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		fw, err := LoadFramework(path)
		if err != nil {
			return
		}
		nTargets, nFeat := fw.Dims()
		mat := make(window.Matrix, nTargets)
		for i := range mat {
			mat[i] = make([]float64, nFeat)
		}
		class, _ := fw.Predict(mat)
		fw.Bins.Name(class)
	})
}

// TestFailedSaveKeepsPreviousFramework: a save that cannot encode (a NaN
// weight) returns the error and leaves the framework file it would have
// replaced byte-identical, so a reload still finds the last good model.
func TestFailedSaveKeepsPreviousFramework(t *testing.T) {
	fw, _, err := TrainFrameworkE(warmDataset(40, 3, 5, 2, 3), FrameworkConfig{
		Seed: 2, Train: ml.TrainConfig{Epochs: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fw.json")
	if err := fw.Save(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fw.Model.Params()[0].W[0] = math.NaN()
	if err := fw.Save(path); err == nil {
		t.Fatal("saving a NaN weight succeeded")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("failed save changed the file: %d bytes before, %d after", len(before), len(after))
	}
	if _, err := LoadFramework(path); err != nil {
		t.Fatalf("previous framework no longer loads: %v", err)
	}
}
