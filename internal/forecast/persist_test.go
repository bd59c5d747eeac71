package forecast

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"quanterference/internal/dataset"
	"quanterference/internal/label"
	"quanterference/internal/ml"
)

// savedSpec saves a valid two-head forecaster (history 3, two raw features,
// one class per bin) and returns the spec decoded from its file.
func savedSpec(tb testing.TB, bins label.Bins) forecasterSpec {
	tb.Helper()
	f := testForecaster(3, 2, bins.Classes(), []int{1, 2})
	f.Bins = bins
	path := filepath.Join(tb.TempDir(), "fc.json")
	if err := f.Save(path); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	var spec forecasterSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		tb.Fatal(err)
	}
	return spec
}

// kernelHead is a head spec over a fresh kernel model reading nFeat pooled
// features, with an identity scaler.
func kernelHead(tb testing.TB, horizon, history, nFeat int) headSpec {
	tb.Helper()
	ms, err := ml.Snapshot(ml.NewKernelModel(ml.KernelConfig{NTargets: history, NFeat: nFeat, Classes: 2}))
	if err != nil {
		tb.Fatal(err)
	}
	scaler := &dataset.Scaler{Mean: make([]float64, nFeat), Std: make([]float64, nFeat)}
	for j := range scaler.Std {
		scaler.Std[j] = 1
	}
	return headSpec{Horizon: horizon, Model: ms, Scaler: scaler}
}

// forecastsEveryClass loads path and, when Load accepts it, forecasts from a
// well-shaped history and names every predicted class — what /v1/forecast
// does with the forecaster quantserve -forecast loads.
func forecastsEveryClass(path string) error {
	f, err := Load(path)
	if err != nil {
		return err
	}
	history, nFeat := f.Dims()
	p, err := f.Predict(histWindows(history, 2, nFeat))
	if err != nil {
		return err
	}
	for _, c := range p.Classes {
		f.Bins.Name(c)
	}
	return nil
}

// writeSpec writes spec to a fresh file and returns its path.
func writeSpec(tb testing.TB, spec forecasterSpec) string {
	tb.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "fc.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		tb.Fatal(err)
	}
	return path
}

// TestLoadRejectsUnservableHeads saves a valid forecaster, mutates one
// field, and checks every file whose heads could not forecast is refused
// with ErrBadSpec instead of panicking Predict later.
func TestLoadRejectsUnservableHeads(t *testing.T) {
	for _, bins := range []label.Bins{label.BinaryBins(), label.SeverityBins()} {
		if err := forecastsEveryClass(writeSpec(t, savedSpec(t, bins))); err != nil {
			t.Fatalf("valid file with bins %v refused: %v", bins.Thresholds, err)
		}
	}
	binary, severity := label.BinaryBins(), label.SeverityBins()
	cases := []struct {
		name   string
		bins   label.Bins
		mutate func(*forecasterSpec)
	}{
		{"no scaler", binary, func(s *forecasterSpec) { s.Heads[0].Scaler = nil }},
		{"std shorter than mean", binary, func(s *forecasterSpec) { s.Heads[1].Scaler.Std = s.Heads[1].Scaler.Std[:1] }},
		{"history differs from model", binary, func(s *forecasterSpec) { s.History = 2 }},
		{"no thresholds", binary, func(s *forecasterSpec) { s.Thresholds = []float64{} }},
		{"thresholds name 3 classes", binary, func(s *forecasterSpec) { s.Thresholds = []float64{2, 5} }},
		{"descending thresholds", severity, func(s *forecasterSpec) { s.Thresholds = []float64{5, 2} }},
		{"negative threshold", binary, func(s *forecasterSpec) { s.Threshold = -1 }},
		{"zero horizon", binary, func(s *forecasterSpec) { s.Heads[0].Horizon = 0 }},
		{"horizons out of order", binary, func(s *forecasterSpec) { s.Heads[0].Horizon, s.Heads[1].Horizon = 2, 1 }},
		{"heads disagree on width", binary, func(s *forecasterSpec) { s.Heads[1] = kernelHead(t, 2, 3, 6) }},
		{"odd pooled width", binary, func(s *forecasterSpec) { s.Heads = []headSpec{kernelHead(t, 1, 3, 5)} }},
		{"weights of the wrong shape", binary, func(s *forecasterSpec) { s.Heads[0].Model.Weights = [][]float64{{1}} }},
		{"no model", binary, func(s *forecasterSpec) { s.Heads[1].Model = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := savedSpec(t, tc.bins)
			tc.mutate(&spec)
			if err := forecastsEveryClass(writeSpec(t, spec)); !errors.Is(err, ErrBadSpec) {
				t.Fatalf("err = %v, want ErrBadSpec", err)
			}
		})
	}
}

// FuzzLoad throws arbitrary forecaster files at Load: any file it accepts
// must forecast from a well-shaped history and name every predicted class
// without panicking. Run with make fuzz.
func FuzzLoad(f *testing.F) {
	for _, mutate := range []func(*forecasterSpec){
		func(*forecasterSpec) {},
		func(s *forecasterSpec) { s.Heads[0].Scaler = nil },
		func(s *forecasterSpec) { s.History = 2 },
		func(s *forecasterSpec) { s.Thresholds = nil },
		func(s *forecasterSpec) { s.Heads = []headSpec{kernelHead(f, 1, 3, 5)} },
	} {
		spec := savedSpec(f, label.BinaryBins())
		mutate(&spec)
		raw, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"format": "quanterference.forecaster", "version": 1, "history": 1, "heads": [{}]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "fc.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := forecastsEveryClass(path); err != nil && !errors.Is(err, ErrBadSpec) {
			t.Fatalf("accepted forecaster cannot forecast a well-shaped history: %v", err)
		}
	})
}

// TestFailedSaveKeepsPreviousFile: a save that cannot encode (a NaN weight)
// returns the error and leaves the forecaster file it would have replaced
// byte-identical.
func TestFailedSaveKeepsPreviousFile(t *testing.T) {
	f := testForecaster(3, 2, 2, []int{1, 2})
	path := filepath.Join(t.TempDir(), "fc.json")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Heads[1].Model.Params()[0].W[0] = math.NaN()
	if err := f.Save(path); err == nil {
		t.Fatal("saving a NaN weight succeeded")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("failed save changed the file: %d bytes before, %d after", len(before), len(after))
	}
}
