package dataset

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeRaw encodes d without Save's help, so malformed datasets reach disk.
func writeRaw(t *testing.T, d *Dataset) string {
	t.Helper()
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ds.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// trainableDataset is the 20-sample, 2-target × 3-feature file the rejected
// rows below start from.
func trainableDataset() *Dataset {
	d := New([]string{"a", "b", "c"}, 2, 2)
	for i := 0; i < 20; i++ {
		d.Add(&Sample{Run: "r", Window: i, Degradation: 1, Label: i % 2,
			Vectors: [][]float64{{1, 2, 3}, {float64(i), 0, -1}}})
	}
	return d
}

// TestLoadRejectsUntrainableFiles: a file that decodes but whose header or
// samples do not fit a trainable schema is refused with ErrBadDataset naming
// the sample, instead of panicking later in training. The short-row and
// label-7 rows are the files that crashed quanttrain -data.
func TestLoadRejectsUntrainableFiles(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Dataset)
		want   string // substring naming the culprit
	}{
		{"no targets", func(d *Dataset) { d.NTargets = 0 }, "0 targets"},
		{"no feature names", func(d *Dataset) { d.FeatureNames = nil }, "0 features"},
		{"one class", func(d *Dataset) { d.Classes = 1 }, "1 classes"},
		{"too many classes", func(d *Dataset) { d.Classes = 1 << 20 }, "1048576 classes"},
		{"one-value row", func(d *Dataset) { d.Samples[7].Vectors[1] = []float64{0.5} }, "sample 7"},
		{"missing target", func(d *Dataset) { d.Samples[3].Vectors = d.Samples[3].Vectors[:1] }, "sample 3"},
		{"label beyond classes", func(d *Dataset) { d.Samples[11].Label = 7 }, "sample 11"},
		{"negative label", func(d *Dataset) { d.Samples[2].Label = -1 }, "sample 2"},
		{"null sample", func(d *Dataset) { d.Samples[5] = nil }, "sample 5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := trainableDataset()
			tc.mutate(d)
			_, err := Load(writeRaw(t, d))
			if !errors.Is(err, ErrBadDataset) {
				t.Fatalf("err = %v, want ErrBadDataset", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want it to name %q", err, tc.want)
			}
		})
	}
	if _, err := Load(writeRaw(t, trainableDataset())); err != nil {
		t.Fatalf("unmutated file rejected: %v", err)
	}
}

// TestFailedSaveKeepsPreviousFile: a save that cannot encode (a NaN
// degradation) returns the error and leaves the file it would have replaced
// byte-identical.
func TestFailedSaveKeepsPreviousFile(t *testing.T) {
	d := trainableDataset()
	path := filepath.Join(t.TempDir(), "ds.json")
	if err := d.Save(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	d.Samples[4].Degradation = math.NaN()
	if err := d.Save(path); err == nil {
		t.Fatal("saving a NaN degradation succeeded")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("failed save changed the file: %d bytes before, %d after", len(before), len(after))
	}
}
