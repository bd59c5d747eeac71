package core

import (
	"context"
	"fmt"

	"quanterference/internal/dataset"
	"quanterference/internal/forecast"
	"quanterference/internal/label"
	"quanterference/internal/ml"
)

// ForecasterConfig controls TrainForecasterCtx.
type ForecasterConfig struct {
	// Forecast fixes the temporal shape: history length, horizon set, and
	// degradation threshold (zero value = forecast package defaults).
	Forecast forecast.Config
	// Bins label the lead windows (default binary). The dataset must already
	// be labeled under them — BuildLagged reads stored labels, it does not
	// rebin.
	Bins  label.Bins
	Train ml.TrainConfig
	Seed  int64
}

// TrainForecasterCtx trains the forecast sequence head from the same
// window-labeled dataset CollectDatasetCtx produces: for every horizon it
// builds the lead-labeled lagged dataset (forecast.BuildLagged), splits it
// 80/20 with TrainFrameworkCtx's split seed (so forecast and classifier
// accuracies are comparable), standardizes on the training portion, and
// trains one kernel head, returning the forecaster plus each horizon's
// test-set confusion matrix (index-aligned with Forecaster.Horizons()).
//
// Validation mirrors TrainFrameworkCtx: nil/empty datasets return
// ErrEmptyDataset, bins whose class count differs from the dataset's return
// ErrBinsMismatch, a horizon whose lead-labeled dataset is empty (no run has
// History consecutive windows plus one Horizon ahead) returns
// ErrForecastHorizon, and cancellation wraps ErrCanceled.
func TrainForecasterCtx(ctx context.Context, ds *dataset.Dataset, cfg ForecasterConfig) (*forecast.Forecaster, []*ml.Confusion, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, nil, ErrEmptyDataset
	}
	if cfg.Bins.Thresholds == nil {
		cfg.Bins = label.BinaryBins()
	}
	if cfg.Bins.Classes() != ds.Classes {
		return nil, nil, fmt.Errorf("%w: bins name %d classes, the dataset has %d",
			ErrBinsMismatch, cfg.Bins.Classes(), ds.Classes)
	}
	if cfg.Train.Seed == 0 {
		cfg.Train.Seed = cfg.Seed
	}
	fc := cfg.Forecast
	fc.ApplyDefaults()
	if err := fc.Validate(); err != nil {
		return nil, nil, err
	}

	f := &forecast.Forecaster{History: fc.History, Threshold: fc.Threshold, Bins: cfg.Bins}
	cms := make([]*ml.Confusion, len(fc.Horizons))
	for i, k := range fc.Horizons {
		lagged := forecast.BuildLagged(ds, fc.History, k)
		if lagged.Len() == 0 {
			return nil, nil, fmt.Errorf("%w: horizon %d over history %d leaves none of %d windows lead-labeled",
				ErrForecastHorizon, k, fc.History, ds.Len())
		}

		model := ml.NewKernelModel(ml.KernelConfig{
			NTargets: fc.History,
			NFeat:    len(lagged.FeatureNames),
			Classes:  lagged.Classes,
			// A distinct seed per horizon keeps the heads independently
			// initialized while staying a pure function of (Seed, k).
			Seed: cfg.Seed ^ int64(k)*0x4643,
		})

		// Same split seed as trainFramework, so a forecast head's holdout
		// accuracy is measured the same way the classifier's is.
		train, test := Holdout(lagged, cfg.Seed)
		if train.Len() == 0 {
			return nil, nil, fmt.Errorf("%w: horizon %d: %d lead-labeled samples leave an empty training split",
				ErrForecastHorizon, k, lagged.Len())
		}
		scaler := dataset.FitScaler(train)
		scaler.Transform(train)
		scaler.Transform(test)

		tcfg := cfg.Train
		tcfg.Seed = cfg.Train.Seed ^ int64(k)*0x7161
		if _, err := ml.TrainCtx(ctx, model, train, tcfg); err != nil {
			return nil, nil, fmt.Errorf("%w: forecaster horizon %d stopped: %w", ErrCanceled, k, err)
		}
		f.Heads = append(f.Heads, &forecast.Head{Horizon: k, Model: model, Scaler: scaler})
		cms[i] = ml.Evaluate(model, test)
	}
	return f, cms, nil
}
