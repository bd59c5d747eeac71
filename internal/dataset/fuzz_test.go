package dataset_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"quanterference/internal/core"
	"quanterference/internal/dataset"
	"quanterference/internal/ml"
)

// FuzzLoad throws arbitrary dataset files at Load: any file it accepts must
// train a framework for one epoch without panicking (an error, such as an
// empty dataset, is fine). Run with make fuzz.
func FuzzLoad(f *testing.F) {
	for _, mutate := range []func(*dataset.Dataset){
		func(*dataset.Dataset) {},
		func(d *dataset.Dataset) { d.Samples[7].Vectors[1] = []float64{0.5} },
		func(d *dataset.Dataset) { d.Samples[11].Label = 7 },
		func(d *dataset.Dataset) { d.Classes = 3 },
		func(d *dataset.Dataset) { d.Samples = nil },
	} {
		d := dataset.New([]string{"a", "b", "c"}, 2, 2)
		for i := 0; i < 20; i++ {
			d.Add(&dataset.Sample{Run: "r", Window: i, Degradation: 1 + float64(i%2), Label: i % 2,
				Vectors: [][]float64{{1, 2, 3}, {float64(i), 0, -1}}})
		}
		mutate(d)
		raw, err := json.Marshal(d)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"feature_names": ["x"], "n_targets": 1, "classes": 2, "samples": [null]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "ds.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		ds, err := dataset.Load(path)
		if err != nil {
			return
		}
		_, _, _ = core.TrainFrameworkE(ds, core.FrameworkConfig{Train: ml.TrainConfig{Epochs: 1}})
	})
}
