package core

import "errors"

// Sentinel errors returned by the error-returning API (RunE, CollectDatasetE,
// TrainFrameworkE). Match with errors.Is; the returned errors wrap these with
// detail about the offending field.
var (
	// ErrInvalidScenario reports a Scenario that cannot run: missing target
	// workload, malformed window size, or incomplete interference specs.
	ErrInvalidScenario = errors.New("core: invalid scenario")

	// ErrBaselineUnfinished reports that the interference-free baseline run
	// of CollectDatasetE hit MaxTime before the target completed, so no
	// degradation labels can be derived. Raise Scenario.MaxTime or shrink
	// the target workload.
	ErrBaselineUnfinished = errors.New("core: baseline run did not finish within MaxTime")

	// ErrVariantUnfinished marks a variant run that hit MaxTime before the
	// target completed — typical when fault injection degrades the cluster
	// past what the time budget absorbs. CollectDatasetE skips such variants
	// (recording them in the CollectReport) rather than aborting.
	ErrVariantUnfinished = errors.New("core: variant run did not finish within MaxTime")

	// ErrAllVariantsFailed reports that every variant run of CollectDatasetE
	// failed or went unfinished, so the dataset would hold no
	// interference samples at all.
	ErrAllVariantsFailed = errors.New("core: all variant runs failed")

	// ErrEmptyDataset reports a training request on a nil or empty dataset.
	ErrEmptyDataset = errors.New("core: dataset has no samples")

	// ErrBadFrameworkFile reports a framework file that is not in this
	// build's persistence format (wrong format tag or version) or whose
	// model or scaler cannot be rebuilt.
	ErrBadFrameworkFile = errors.New("core: unrecognized framework file")

	// ErrWarmStartMismatch reports a WithWarmStart framework whose model
	// shape (targets, features, classes) or scaler width does not match the
	// dataset being retrained on — warm starting only makes sense when the
	// candidate reads the same input space as the incumbent.
	ErrWarmStartMismatch = errors.New("core: warm-start framework does not match dataset shape")

	// ErrBinsMismatch reports a training request whose bins name a different
	// number of classes than the dataset's labels use: the trained model
	// would predict classes the bins cannot name.
	ErrBinsMismatch = errors.New("core: bins do not match the dataset's classes")

	// ErrForecastHorizon reports a TrainForecasterCtx horizon no run in the
	// dataset can label: no window has History consecutive predecessors plus
	// a window Horizon ahead. Collect longer runs or shrink History/Horizons.
	ErrForecastHorizon = errors.New("core: no windows reach the forecast horizon")

	// ErrCanceled reports that a context-aware entry point (RunCtx,
	// CollectDatasetCtx, TrainFrameworkCtx) stopped because its context was
	// done. The returned error wraps both ErrCanceled and the context's own
	// error, so errors.Is matches either (including context.DeadlineExceeded).
	ErrCanceled = errors.New("core: operation canceled")
)
