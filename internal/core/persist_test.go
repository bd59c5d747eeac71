package core

import (
	"encoding/json"
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
