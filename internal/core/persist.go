package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"quanterference/internal/atomicfile"
	"quanterference/internal/dataset"
	"quanterference/internal/label"
	"quanterference/internal/ml"
)

// FrameworkFormat tags framework files so unrelated JSON is rejected with a
// descriptive error instead of being decoded into garbage weights.
const FrameworkFormat = "quanterference.framework"

// FrameworkFormatVersion is bumped whenever the on-disk layout changes
// incompatibly. Version history:
//
//	1 — format/version header added; model spec, scaler, thresholds.
const FrameworkFormatVersion = 1

// frameworkSpec is the on-disk form of a trained Framework.
type frameworkSpec struct {
	Format     string          `json:"format"`
	Version    int             `json:"version"`
	Model      *ml.ModelSpec   `json:"model"`
	Scaler     *dataset.Scaler `json:"scaler"`
	Thresholds []float64       `json:"thresholds"`
}

// Save persists the trained framework (model weights, scaler, bins) as JSON
// so prediction can run in a later process (cmd/quantpredict). A failed save
// (such as a non-finite weight) leaves any previous file at path intact, so
// a reload keeps finding the last good framework.
func (f *Framework) Save(path string) error {
	spec, err := ml.Snapshot(f.Model)
	if err != nil {
		return err
	}
	return atomicfile.Write(path, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(frameworkSpec{
			Format:     FrameworkFormat,
			Version:    FrameworkFormatVersion,
			Model:      spec,
			Scaler:     f.Scaler,
			Thresholds: f.Bins.Thresholds,
		})
	})
}

// LoadFramework restores a framework written by Save. Files without the
// format header (including pre-versioned ones), with a version this build
// does not read, whose model or scaler cannot be rebuilt (missing,
// out-of-bounds dimensions, mismatched weights), or whose bins do not name
// the model's classes return an error wrapping ErrBadFrameworkFile — never
// a panic, since a reload must survive any file and then serve.
func LoadFramework(path string) (*Framework, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	var spec frameworkSpec
	if err := json.NewDecoder(file).Decode(&spec); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrBadFrameworkFile, path, err)
	}
	if spec.Format != FrameworkFormat {
		return nil, fmt.Errorf("%w: %s: format %q, want %q (re-save with this build's Framework.Save)",
			ErrBadFrameworkFile, path, spec.Format, FrameworkFormat)
	}
	if spec.Version != FrameworkFormatVersion {
		return nil, fmt.Errorf("%w: %s: format version %d, this build reads version %d",
			ErrBadFrameworkFile, path, spec.Version, FrameworkFormatVersion)
	}
	model, err := ml.Restore(spec.Model)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrBadFrameworkFile, path, err)
	}
	if nf := spec.Model.NFeat; spec.Scaler == nil || len(spec.Scaler.Mean) != nf || len(spec.Scaler.Std) != nf {
		return nil, fmt.Errorf("%w: %s: scaler does not cover the model's %d features", ErrBadFrameworkFile, path, nf)
	}
	if err := checkBins(spec.Thresholds, spec.Model.Classes); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrBadFrameworkFile, path, err)
	}
	return &Framework{
		Bins:   label.Bins{Thresholds: spec.Thresholds},
		Model:  model,
		Scaler: spec.Scaler,
	}, nil
}

// checkBins requires ascending, finite thresholds that name exactly the
// model's classes, so every class the model predicts has a bin name.
func checkBins(thresholds []float64, classes int) error {
	if len(thresholds)+1 != classes {
		return fmt.Errorf("%d thresholds name %d classes, the model predicts %d",
			len(thresholds), len(thresholds)+1, classes)
	}
	for i, t := range thresholds {
		if math.IsNaN(t) || math.IsInf(t, 0) || (i > 0 && t <= thresholds[i-1]) {
			return fmt.Errorf("thresholds %v are not ascending and finite", thresholds)
		}
	}
	return nil
}
