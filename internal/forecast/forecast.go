// Package forecast turns the window stream the serving layer already
// watches into an early-warning signal: instead of classifying the current
// window's slowdown (core.Framework), a Forecaster reads the last History
// window matrices and predicts the slowdown class k windows ahead for every
// horizon k in its set, plus a time-to-degradation derived from those heads
// (the smallest horizon whose predicted class reaches the threshold).
//
// Each horizon is one Head: a standard ml kernel network whose input is the
// [History x pooled-features] matrix of per-window summaries — Pool
// collapses a raw [targets x features] window matrix to per-feature mean and
// max across targets, so the sequence positions play the role the per-server
// rows play in the classifier, and the shared kernel becomes a weight-shared
// temporal encoder. Reusing the ml stack means every head inherits Replica
// (data-parallel training), ExportWeights, and CloneModel, so forecasters
// train, digest, and clone exactly like frameworks.
//
// Determinism contract: BuildLagged emits samples in the source dataset's
// order, training is seeded, and Predict is pure arithmetic — same seed and
// same dataset produce bit-identical forecaster weights and predictions.
package forecast

import (
	"errors"
	"fmt"
	"slices"

	"quanterference/internal/dataset"
	"quanterference/internal/label"
	"quanterference/internal/ml"
	"quanterference/internal/monitor/window"
)

// Sentinel errors. Match with errors.Is.
var (
	// ErrBadConfig reports a Config whose shape cannot train (non-positive
	// history or horizons, negative threshold).
	ErrBadConfig = errors.New("forecast: invalid config")

	// ErrBadHistory reports a Predict call whose window history does not
	// match the forecaster: wrong window count, or rows whose feature width
	// differs from what the heads were trained on.
	ErrBadHistory = errors.New("forecast: window history does not match forecaster")

	// ErrBadSpec reports a forecaster file that is not in this build's
	// persistence format.
	ErrBadSpec = errors.New("forecast: unrecognized forecaster file")
)

// Config fixes a forecaster's temporal shape. The zero value is usable:
// every field defaults to the values the lead-time study ships with.
type Config struct {
	// History is how many consecutive windows the sequence head reads
	// (default 4).
	History int
	// Horizons are the lead distances predicted, in windows (default
	// 1, 2, 4). ApplyDefaults sorts ascending and deduplicates, so
	// Prediction.LeadWindows can scan heads in order.
	Horizons []int
	// Threshold is the first class that counts as "degrading" when deriving
	// time-to-degradation (default 1 — the paper's >=2x bin under binary
	// labels).
	Threshold int
}

// ApplyDefaults fills zero fields and normalizes Horizons (sorted,
// deduplicated) into a fresh slice, so a caller sharing the old one reads
// it unchanged.
func (c *Config) ApplyDefaults() {
	if c.History == 0 {
		c.History = 4
	}
	if len(c.Horizons) == 0 {
		c.Horizons = []int{1, 2, 4}
	}
	c.Horizons = slices.Clone(c.Horizons)
	slices.Sort(c.Horizons)
	c.Horizons = slices.Compact(c.Horizons)
	if c.Threshold == 0 {
		c.Threshold = 1
	}
}

// Validate rejects shapes that cannot train, wrapping ErrBadConfig.
func (c *Config) Validate() error {
	if c.History < 1 {
		return fmt.Errorf("%w: history %d", ErrBadConfig, c.History)
	}
	for _, k := range c.Horizons {
		if k < 1 {
			return fmt.Errorf("%w: horizon %d (leads are >= 1 window)", ErrBadConfig, k)
		}
	}
	if c.Threshold < 0 {
		return fmt.Errorf("%w: negative threshold %d", ErrBadConfig, c.Threshold)
	}
	return nil
}

// Head is one horizon's model: a kernel network over the pooled
// [History x pooled-features] matrix, with the per-feature scaler fitted on
// that horizon's training split. All three fields must be populated — the
// zero value has no model to run.
type Head struct {
	Horizon int
	Model   ml.Model
	Scaler  *dataset.Scaler
}

// Forecaster is the trained sequence head: one Head per horizon (ascending),
// sharing the history length, degradation bins, and threshold. Like
// core.Framework, Predict reuses per-forecaster scratch and must not be
// called from multiple goroutines at once; internal/serve serializes its
// callers with a one-slot lock.
//
// The zero value is not usable — a Forecaster needs at least one fully
// populated Head. Build one with core.TrainForecasterCtx, restore one with
// Load, or (in tests) assemble the fields by hand. Predict is pure
// arithmetic over the head weights: the same Forecaster given the same
// history always returns an identical Prediction.
type Forecaster struct {
	History   int
	Threshold int
	Bins      label.Bins
	Heads     []*Head // ascending by Horizon

	pooled [][]float64 // raw pooled rows, one per history window
	scaled [][]float64 // per-head standardized view of pooled
}

// Prediction is one forecast: the predicted class and class distribution per
// horizon, plus the derived time-to-degradation.
type Prediction struct {
	// Horizons, Classes, and Probs are parallel: Classes[i] is the predicted
	// slowdown class Horizons[i] windows ahead, Probs[i] its distribution.
	Horizons []int
	Classes  []int
	Probs    [][]float64
	// LeadWindows is the forecast time-to-degradation: the smallest horizon
	// whose predicted class reaches the threshold, or 0 when no horizon
	// predicts degradation. It is a lower bound quantized to the horizon set
	// — a forecaster with horizons {1,2,4} reports 4 for anything it first
	// sees at its longest lead.
	LeadWindows int
}

// Degrading reports whether any horizon predicts a class at or past the
// threshold. The zero-value Prediction (LeadWindows 0) reports false — "no
// degradation in sight" is the zero state.
func (p *Prediction) Degrading() bool { return p.LeadWindows > 0 }

// Horizons returns the ascending horizon set, one per head.
func (f *Forecaster) Horizons() []int {
	ks := make([]int, len(f.Heads))
	for i, h := range f.Heads {
		ks[i] = h.Horizon
	}
	return ks
}

// Classes returns the per-horizon class count.
func (f *Forecaster) Classes() int {
	if _, _, cls, ok := ml.Dims(f.Heads[0].Model); ok {
		return cls
	}
	return f.Bins.Classes()
}

// Dims reports the raw input shape Predict expects: History window matrices
// whose rows are nFeat features wide (any row count per window — pooling
// collapses the target dimension).
func (f *Forecaster) Dims() (history, nFeat int) {
	return f.History, len(f.Heads[0].Scaler.Mean) / 2
}

// Predict forecasts from the last History window matrices, oldest first.
// The returned Prediction is freshly allocated and the caller's to keep.
func (f *Forecaster) Predict(history []window.Matrix) (*Prediction, error) {
	if len(history) != f.History {
		return nil, fmt.Errorf("%w: %d windows, need %d", ErrBadHistory, len(history), f.History)
	}
	_, nFeat := f.Dims()
	if f.pooled == nil {
		f.pooled = make([][]float64, f.History)
		f.scaled = make([][]float64, f.History)
		for i := range f.pooled {
			f.pooled[i] = make([]float64, 2*nFeat)
			f.scaled[i] = make([]float64, 2*nFeat)
		}
	}
	for i, mat := range history {
		if len(mat) == 0 {
			return nil, fmt.Errorf("%w: window %d is empty", ErrBadHistory, i)
		}
		for _, row := range mat {
			if len(row) != nFeat {
				return nil, fmt.Errorf("%w: window %d row has %d features, trained on %d",
					ErrBadHistory, i, len(row), nFeat)
			}
		}
		PoolInto(f.pooled[i], mat)
	}

	classes := f.Classes()
	p := &Prediction{
		Horizons: make([]int, len(f.Heads)),
		Classes:  make([]int, len(f.Heads)),
		Probs:    make([][]float64, len(f.Heads)),
	}
	for h, head := range f.Heads {
		for i, row := range f.pooled {
			dst := f.scaled[i]
			for j := range row {
				dst[j] = (row[j] - head.Scaler.Mean[j]) / head.Scaler.Std[j]
			}
		}
		probs := head.Model.ProbsInto(make([]float64, classes), f.scaled)
		class := 0
		for c := range probs {
			if probs[c] > probs[class] {
				class = c
			}
		}
		p.Horizons[h] = head.Horizon
		p.Classes[h] = class
		p.Probs[h] = probs
		if p.LeadWindows == 0 && class >= f.Threshold {
			p.LeadWindows = head.Horizon
		}
	}
	return p, nil
}

// Clone returns an independent deep copy — weight-equal heads with private
// scratch — so one forecaster can serve while another copy is evaluated or
// retrained, mirroring core.Framework.Clone.
func (f *Forecaster) Clone() (*Forecaster, error) {
	out := &Forecaster{
		History:   f.History,
		Threshold: f.Threshold,
		Bins:      label.Bins{Thresholds: append([]float64(nil), f.Bins.Thresholds...)},
	}
	for _, h := range f.Heads {
		m, err := ml.CloneModel(h.Model)
		if err != nil {
			return nil, err
		}
		out.Heads = append(out.Heads, &Head{
			Horizon: h.Horizon,
			Model:   m,
			Scaler: &dataset.Scaler{
				Mean: append([]float64(nil), h.Scaler.Mean...),
				Std:  append([]float64(nil), h.Scaler.Std...),
			},
		})
	}
	return out, nil
}

// ExportWeights snapshots every head's weight tensors bit-exactly, heads in
// horizon order — what the determinism tests compare across same-seed runs.
func (f *Forecaster) ExportWeights() [][]float64 {
	var out [][]float64
	for _, h := range f.Heads {
		out = append(out, ml.ExportWeights(h.Model)...)
	}
	return out
}

// Tracker feeds a live window stream into a Forecaster: it keeps the last
// History matrices (shared read-only with the caller, like the online
// loop's reservoir) and predicts once warm. Single-goroutine, like the
// Forecaster it drives.
type Tracker struct {
	f    *Forecaster
	hist []window.Matrix
}

// NewTracker builds an empty tracker over f.
func NewTracker(f *Forecaster) *Tracker {
	return &Tracker{f: f, hist: make([]window.Matrix, 0, f.History)}
}

// Offer appends one live window, evicting the oldest once History is held.
func (t *Tracker) Offer(mat window.Matrix) {
	if len(t.hist) == t.f.History {
		copy(t.hist, t.hist[1:])
		t.hist = t.hist[:len(t.hist)-1]
	}
	t.hist = append(t.hist, mat)
}

// Ready reports whether a full history has been observed.
func (t *Tracker) Ready() bool { return len(t.hist) == t.f.History }

// Predict forecasts from the tracked history; call only once Ready (before
// that the partial history fails the forecaster's shape check with
// ErrBadHistory).
func (t *Tracker) Predict() (*Prediction, error) { return t.f.Predict(t.hist) }

// Reset drops the tracked history (e.g. when the stream restarts).
func (t *Tracker) Reset() { t.hist = t.hist[:0] }
