package forecast

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

// Format tags forecaster files so unrelated JSON is rejected with a
// descriptive error instead of being decoded into garbage weights —
// the forecaster sibling of core.FrameworkFormat.
const Format = "quanterference.forecaster"

// FormatVersion is bumped whenever the on-disk layout changes incompatibly.
// Version history:
//
//	1 — format/version header; history, threshold, bins, per-horizon heads.
const FormatVersion = 1

type headSpec struct {
	Horizon int             `json:"horizon"`
	Model   *ml.ModelSpec   `json:"model"`
	Scaler  *dataset.Scaler `json:"scaler"`
}

type forecasterSpec struct {
	Format     string     `json:"format"`
	Version    int        `json:"version"`
	History    int        `json:"history"`
	Threshold  int        `json:"threshold"`
	Thresholds []float64  `json:"thresholds"` // label.Bins
	Heads      []headSpec `json:"heads"`
}

// Save persists the forecaster (per-horizon weights, scalers, bins) as JSON
// so forecasting can run in a later process (quantserve -forecast). A failed
// save leaves any previous file at path intact.
func (f *Forecaster) Save(path string) error {
	spec := forecasterSpec{
		Format:     Format,
		Version:    FormatVersion,
		History:    f.History,
		Threshold:  f.Threshold,
		Thresholds: f.Bins.Thresholds,
	}
	for _, h := range f.Heads {
		ms, err := ml.Snapshot(h.Model)
		if err != nil {
			return err
		}
		spec.Heads = append(spec.Heads, headSpec{Horizon: h.Horizon, Model: ms, Scaler: h.Scaler})
	}
	return atomicfile.Write(path, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(spec)
	})
}

// Load restores a forecaster written by Save. Files without the format
// header, with a version this build does not read, or whose heads could not
// run Predict (a model or scaler that cannot be rebuilt or does not match the
// history and pooled feature width, horizons that are not ascending leads,
// bins that do not name the model's classes) return an error wrapping
// ErrBadSpec — never a forecaster that panics once served.
func Load(path string) (*Forecaster, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	var spec forecasterSpec
	if err := json.NewDecoder(file).Decode(&spec); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrBadSpec, path, err)
	}
	if spec.Format != Format {
		return nil, fmt.Errorf("%w: %s: format %q, want %q", ErrBadSpec, path, spec.Format, Format)
	}
	if spec.Version != FormatVersion {
		return nil, fmt.Errorf("%w: %s: format version %d, this build reads version %d",
			ErrBadSpec, path, spec.Version, FormatVersion)
	}
	f, err := spec.forecaster()
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrBadSpec, path, err)
	}
	return f, nil
}

// forecaster rebuilds the heads, checking every shape Predict relies on.
func (spec *forecasterSpec) forecaster() (*Forecaster, error) {
	if spec.History < 1 || len(spec.Heads) == 0 {
		return nil, fmt.Errorf("history %d with %d heads", spec.History, len(spec.Heads))
	}
	if spec.Threshold < 0 {
		return nil, fmt.Errorf("negative threshold %d", spec.Threshold)
	}
	for i, t := range spec.Thresholds {
		if math.IsNaN(t) || math.IsInf(t, 0) || (i > 0 && t <= spec.Thresholds[i-1]) {
			return nil, fmt.Errorf("thresholds %v are not ascending and finite", spec.Thresholds)
		}
	}
	f := &Forecaster{
		History:   spec.History,
		Threshold: spec.Threshold,
		Bins:      label.Bins{Thresholds: spec.Thresholds},
	}
	for i, hs := range spec.Heads {
		if hs.Horizon < 1 || (i > 0 && hs.Horizon <= spec.Heads[i-1].Horizon) {
			return nil, fmt.Errorf("head %d: horizon %d (horizons are ascending leads >= 1)", i, hs.Horizon)
		}
		m, err := ml.Restore(hs.Model)
		if err != nil {
			return nil, fmt.Errorf("head %d: %v", i, err)
		}
		ms := hs.Model
		switch {
		case ms.NTargets != spec.History:
			return nil, fmt.Errorf("head %d: model reads %d windows, history is %d", i, ms.NTargets, spec.History)
		case ms.NFeat%2 != 0 || ms.NFeat != spec.Heads[0].Model.NFeat:
			return nil, fmt.Errorf("head %d: model reads %d pooled features, want an even width shared by every head", i, ms.NFeat)
		case hs.Scaler == nil || len(hs.Scaler.Mean) != ms.NFeat || len(hs.Scaler.Std) != ms.NFeat:
			return nil, fmt.Errorf("head %d: scaler does not cover the model's %d features", i, ms.NFeat)
		case ms.Classes != f.Bins.Classes():
			return nil, fmt.Errorf("head %d: %d thresholds name %d classes, the model predicts %d",
				i, len(spec.Thresholds), f.Bins.Classes(), ms.Classes)
		}
		f.Heads = append(f.Heads, &Head{Horizon: hs.Horizon, Model: m, Scaler: hs.Scaler})
	}
	return f, nil
}
