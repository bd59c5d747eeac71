package core

import (
	"context"
	"fmt"

	"quanterference/internal/dataset"
	"quanterference/internal/label"
	"quanterference/internal/ml"
	"quanterference/internal/monitor/clientmon"
	"quanterference/internal/monitor/servermon"
	"quanterference/internal/monitor/window"
	"quanterference/internal/sim"
	"quanterference/internal/workload"
)

// Framework is the trained prediction service: model + scaler + bins.
//
// Predict and PredictBatch reuse per-framework scratch, so a Framework must
// not serve predictions from multiple goroutines at once; the serving layer
// (internal/serve) funnels all inference through one batcher goroutine.
type Framework struct {
	Bins   label.Bins
	Model  ml.Model
	Scaler *dataset.Scaler

	batch batchScratch // PredictBatch's amortized buffers
}

// testFrac is the held-out share of every training split: the paper's
// 80/20 split.
const testFrac = 0.2

// FrameworkConfig controls training.
type FrameworkConfig struct {
	// Bins must name every class the dataset's labels use (default binary).
	Bins  label.Bins
	Train ml.TrainConfig
	// NewModel, when set, replaces the paper's kernel model (e.g. the flat
	// ablation baseline or the attention extension).
	NewModel func(nTargets, nFeat, classes int, seed int64) ml.Model
	Seed     int64
}

// TrainFrameworkE splits the dataset 80/20, standardizes on the training
// portion, trains the model, and returns the framework plus the test-set
// confusion matrix (the paper's Figures 3-5). It validates its inputs — a
// nil or empty dataset returns ErrEmptyDataset (wrapped), and bins whose
// class count differs from the dataset's return ErrBinsMismatch (wrapped).
func TrainFrameworkE(ds *dataset.Dataset, cfg FrameworkConfig, opts ...Option) (*Framework, *ml.Confusion, error) {
	return trainFramework(context.Background(), ds, cfg, opts)
}

func trainFramework(ctx context.Context, ds *dataset.Dataset, cfg FrameworkConfig, opts []Option) (*Framework, *ml.Confusion, error) {
	o := applyOptions(opts)
	if ds == nil || ds.Len() == 0 {
		return nil, nil, ErrEmptyDataset
	}
	if cfg.Bins.Thresholds == nil {
		cfg.Bins = label.BinaryBins()
	}
	if o.warm == nil && cfg.Bins.Classes() != ds.Classes {
		return nil, nil, fmt.Errorf("%w: bins name %d classes, the dataset has %d",
			ErrBinsMismatch, cfg.Bins.Classes(), ds.Classes)
	}
	if cfg.Train.Seed == 0 {
		cfg.Train.Seed = cfg.Seed
	}
	nFeat := len(ds.FeatureNames)

	var model ml.Model
	var scaler *dataset.Scaler
	if o.warm != nil {
		// Warm start: clone the incumbent's architecture and weights, and
		// keep its scaler and bins — retrained weights only mean anything in
		// the input space they were trained in. The clone is independent, so
		// the incumbent may keep serving while the candidate trains.
		if err := o.warm.checkWarmShape(ds); err != nil {
			return nil, nil, err
		}
		m, err := ml.CloneModel(o.warm.Model)
		if err != nil {
			return nil, nil, err
		}
		model = m
		scaler = &dataset.Scaler{
			Mean: append([]float64(nil), o.warm.Scaler.Mean...),
			Std:  append([]float64(nil), o.warm.Scaler.Std...),
		}
		cfg.Bins = o.warm.Bins
	} else {
		if cfg.NewModel != nil {
			model = cfg.NewModel(ds.NTargets, nFeat, ds.Classes, cfg.Seed)
		} else {
			model = ml.NewKernelModel(ml.KernelConfig{
				NTargets: ds.NTargets, NFeat: nFeat, Classes: ds.Classes, Seed: cfg.Seed,
			})
		}
	}

	train, test := ds.Split(testFrac, cfg.Seed^0x5717)
	// Standardize copies: the caller's dataset must stay in raw units so
	// Framework.Predict (which scales its own input) sees raw vectors.
	train, test = train.Copy(), test.Copy()
	if scaler == nil {
		scaler = dataset.FitScaler(train)
	}
	scaler.Transform(train)
	scaler.Transform(test)

	if _, err := ml.TrainCtx(ctx, model, train, cfg.Train); err != nil {
		return nil, nil, fmt.Errorf("%w: training stopped: %w", ErrCanceled, err)
	}

	fw := &Framework{Bins: cfg.Bins, Model: model, Scaler: scaler}
	return fw, ml.Evaluate(model, test), nil
}

// checkWarmShape verifies the warm-start framework reads the dataset's input
// space: same target count, feature width, and class count.
func (f *Framework) checkWarmShape(ds *dataset.Dataset) error {
	if f == nil || f.Model == nil || f.Scaler == nil {
		return fmt.Errorf("%w: nil framework, model, or scaler", ErrWarmStartMismatch)
	}
	if len(f.Scaler.Mean) != len(ds.FeatureNames) {
		return fmt.Errorf("%w: scaler has %d features, dataset has %d",
			ErrWarmStartMismatch, len(f.Scaler.Mean), len(ds.FeatureNames))
	}
	if nT, nF, cls, ok := ml.Dims(f.Model); ok {
		if nT != ds.NTargets || nF != len(ds.FeatureNames) || cls != ds.Classes {
			return fmt.Errorf("%w: model is %dx%d/%d classes, dataset is %dx%d/%d classes",
				ErrWarmStartMismatch, nT, nF, cls, ds.NTargets, len(ds.FeatureNames), ds.Classes)
		}
	}
	return nil
}

// TrainFrameworkCtx is TrainFrameworkE with cancellation: the training epoch
// loop observes ctx and, when it is done, returns an error wrapping both
// ErrCanceled and ctx.Err(). An uncancelled TrainFrameworkCtx is bit-identical
// to TrainFrameworkE; the *E form delegates here with context.Background().
func TrainFrameworkCtx(ctx context.Context, ds *dataset.Dataset, cfg FrameworkConfig, opts ...Option) (*Framework, *ml.Confusion, error) {
	return trainFramework(ctx, ds, cfg, opts)
}

// Predict classifies one raw (unscaled) window matrix: a PredictBatch of one
// whose probabilities are copied out, so the caller owns them.
func (f *Framework) Predict(mat window.Matrix) (class int, probs []float64) {
	cls, ps := f.PredictBatch([]window.Matrix{mat})
	return cls[0], append([]float64(nil), ps[0]...)
}

// batchScratch holds PredictBatch's reusable buffers: scaled input rows, the
// class slice, and the probability rows, all grown on demand and recycled
// across calls so steady-state batched inference allocates nothing.
type batchScratch struct {
	scaled [][]float64 // per-target scaled rows, reused in place
	cls    []int
	probs  [][]float64
	pback  []float64 // flat backing for probs rows
}

// PredictBatch classifies a batch of raw window matrices in one call,
// amortizing scaling and softmax scratch across the batch. Each input is
// scaled and run through the model's ProbsInto on its own, so its class and
// probability bits do not depend on the batch it arrived in — a server may
// group concurrent requests arbitrarily without changing any answer.
//
// The returned slices (and the probability rows) are owned by the Framework
// and valid until its next PredictBatch or Predict call; callers that retain
// results must copy them. Like Predict, PredictBatch must not be called from
// multiple goroutines concurrently.
func (f *Framework) PredictBatch(mats []window.Matrix) ([]int, [][]float64) {
	classes := f.Classes()
	b := &f.batch
	if cap(b.cls) < len(mats) {
		b.cls = make([]int, len(mats))
		b.probs = make([][]float64, len(mats))
		b.pback = make([]float64, len(mats)*classes)
	}
	cls := b.cls[:len(mats)]
	probs := b.probs[:len(mats)]
	for m, mat := range mats {
		// Scale into reused rows.
		if cap(b.scaled) < len(mat) {
			b.scaled = append(b.scaled, make([][]float64, len(mat)-cap(b.scaled))...)
		}
		scaled := b.scaled[:len(mat)]
		for t, vec := range mat {
			if cap(scaled[t]) < len(vec) {
				scaled[t] = make([]float64, len(vec))
			}
			v := scaled[t][:len(vec)]
			for i := range vec {
				v[i] = (vec[i] - f.Scaler.Mean[i]) / f.Scaler.Std[i]
			}
			scaled[t] = v
		}
		dst := f.Model.ProbsInto(b.pback[m*classes:(m+1)*classes], scaled)
		probs[m] = dst
		// Argmax, lowest class on ties.
		class := 0
		for i := range dst {
			if dst[i] > dst[class] {
				class = i
			}
		}
		cls[m] = class
	}
	return cls, probs
}

// Clone returns an independent deep copy of the framework: a weight-equal
// model with private scratch, plus copied scaler and bins. Predictions are
// bit-identical to the original's, but the two may be used (or trained) from
// different goroutines without sharing any mutable state — the primitive the
// continuous-learning loop uses to evaluate an incumbent that the serving
// layer owns.
func (f *Framework) Clone() (*Framework, error) {
	m, err := ml.CloneModel(f.Model)
	if err != nil {
		return nil, err
	}
	return &Framework{
		Bins:  label.Bins{Thresholds: append([]float64(nil), f.Bins.Thresholds...)},
		Model: m,
		Scaler: &dataset.Scaler{
			Mean: append([]float64(nil), f.Scaler.Mean...),
			Std:  append([]float64(nil), f.Scaler.Std...),
		},
	}, nil
}

// ExportWeights snapshots the model's weight tensors bit-exactly (ml
// ExportWeights order) — what the determinism tests compare across same-seed
// runs, and what a promotion audit trail can record.
func (f *Framework) ExportWeights() [][]float64 { return ml.ExportWeights(f.Model) }

// Classes returns the model's class count (falling back to the bins when the
// model type is unknown to ml.Dims).
func (f *Framework) Classes() int {
	if _, _, cls, ok := ml.Dims(f.Model); ok {
		return cls
	}
	return f.Bins.Classes()
}

// Dims reports the input shape Predict expects: nTargets per-server rows of
// nFeat features each. nTargets is 0 when the model type is unknown to
// ml.Dims (any row count is then accepted).
func (f *Framework) Dims() (nTargets, nFeat int) {
	if nT, nF, _, ok := ml.Dims(f.Model); ok {
		return nT, nF
	}
	return 0, len(f.Scaler.Mean)
}

// LiveMonitor attaches the two monitors to a running cluster and emits a
// per-server matrix at every window boundary — the runtime-prediction path
// of Figure 2.
type LiveMonitor struct {
	cm *clientmon.Monitor
	sm *servermon.Monitor

	nTargets int
	ticker   *sim.Ticker
	stopped  bool
}

// AttachLive starts live monitoring on the cluster. Wire Record into the
// target workload's Runner.OnRecord; onWindow fires right after each window
// finalizes with that window's matrix.
func AttachLive(cl *Cluster, windowSize sim.Time, onWindow func(idx int, mat window.Matrix)) *LiveMonitor {
	lm := &LiveMonitor{
		cm:       clientmon.New(cl.FS.NumTargets(), windowSize),
		sm:       servermon.New(cl.FS, windowSize),
		nTargets: cl.FS.NumTargets(),
	}
	lm.ticker = sim.NewTicker(cl.Eng, windowSize, func(now sim.Time) {
		// Defer with a zero-delay event so the server monitor's own tick
		// (same instant) finalizes the window first.
		idx := int(now/windowSize) - 1
		cl.Eng.Schedule(0, func() {
			if lm.stopped {
				return // Stop ran between the tick and this emission
			}
			cw, _ := lm.cm.Window(idx)
			sw, _ := lm.sm.Window(idx)
			onWindow(idx, window.Assemble(lm.nTargets, cw, sw))
		})
	})
	return lm
}

// Record is the client-monitor hook.
func (lm *LiveMonitor) Record(rec workload.Record) { lm.cm.Record(rec) }

// Stop halts sampling and window emission, including an emission already
// queued for the current instant: no onWindow call follows Stop.
func (lm *LiveMonitor) Stop() {
	lm.stopped = true
	lm.ticker.Stop()
	lm.sm.Stop()
}
