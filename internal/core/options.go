package core

import "quanterference/internal/obs"

// Option tunes the error-returning entry points (RunE, CollectDatasetE,
// TrainFrameworkE) with what their configs do not hold: where metrics and
// the collection report go, and which framework a retrain starts from.
type Option func(*options)

type options struct {
	sink   *obs.Sink
	report *CollectReport
	warm   *Framework
}

func applyOptions(opts []Option) options {
	var o options
	for _, fn := range opts {
		if fn != nil {
			fn(&o)
		}
	}
	return o
}

// WithSink attaches an observability sink: every cluster the call builds is
// instrumented on it, and RunResult.Stats snapshots it. When runs fan out
// in parallel (CollectDatasetE variants), the shared sink aggregates across
// them; all sink mutation is atomic, so this is race-free. Without this
// option RunE and RunCtx instrument a private sink, so Stats is still
// populated, while CollectDatasetE runs uninstrumented: it would discard
// every per-run snapshot, so it registers no metric at all.
func WithSink(s *obs.Sink) Option {
	return func(o *options) { o.sink = s }
}

// WithWarmStart makes TrainFrameworkE/TrainFrameworkCtx start from an
// incumbent framework instead of fresh random weights: the candidate model is
// an independent clone of fw's architecture and weights (the incumbent is
// never touched and may keep serving), and the incumbent's scaler and bins
// are reused so the warm weights keep reading the input space they were
// trained in. FrameworkConfig.NewModel/Bins are ignored under warm
// start; cfg.Train still controls the epochs, learning rate, and worker
// count of the incremental pass. A framework whose shape does not match the
// dataset returns an error wrapping ErrWarmStartMismatch. Applies to
// TrainFrameworkE and TrainFrameworkCtx.
func WithWarmStart(fw *Framework) Option {
	return func(o *options) { o.warm = fw }
}

// WithCollectReport fills r with per-variant completion accounting after
// CollectDatasetE returns: how many variants completed, how many samples each
// contributed, and which variants were skipped (with the error that felled
// them). Applies to CollectDatasetE.
func WithCollectReport(r *CollectReport) Option {
	return func(o *options) { o.report = r }
}
