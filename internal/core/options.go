package core

import (
	"quanterference/internal/hw"
	"quanterference/internal/label"
	"quanterference/internal/obs"
)

// Option tunes the error-returning entry points (RunE, CollectDatasetE,
// TrainFrameworkE). Options exist so a zero-valued config field ("use the
// default") can be distinguished from an explicit setting: CollectorConfig's
// MinOpsPerWindow == 0 silently means 3, whereas WithMinOpsPerWindow states
// intent.
type Option func(*options)

type options struct {
	sink     *obs.Sink
	bins     *label.Bins
	minOps   *int
	baseline *bool
	report   *CollectReport
	warm     *Framework
	hardware *hw.Profile
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

// WithBins selects the degradation bins (default: the paper's binary >=2x).
// Applies to CollectDatasetE and TrainFrameworkE.
func WithBins(b label.Bins) Option {
	return func(o *options) { bb := b; o.bins = &bb }
}

// WithMinOpsPerWindow sets the minimum matched operations a window needs to
// be labelled (default 3; values below 1 are clamped to 1, which keeps every
// window with at least one matched op). Applies to CollectDatasetE.
func WithMinOpsPerWindow(n int) Option {
	if n < 1 {
		n = 1
	}
	return func(o *options) { nn := n; o.minOps = &nn }
}

// WithBaselineSamples includes the baseline run's own windows as label-0
// samples (degradation 1.0), teaching the model what "no interference"
// looks like. Applies to CollectDatasetE.
func WithBaselineSamples(include bool) Option {
	return func(o *options) { b := include; o.baseline = &b }
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

// WithHardware runs the scenario on the given hardware profile when the
// scenario itself leaves Scenario.Hardware zero — an explicit
// Scenario.Hardware wins over the option. Profile parameters merge into the
// scenario exactly as Scenario.Hardware documents (fill-if-zero, NICBps
// override). Applies to RunE, RunCtx, CollectDatasetE, and CollectDatasetCtx
// (where the profile covers the baseline and every variant run, and is
// recorded in the dataset header).
func WithHardware(p hw.Profile) Option {
	return func(o *options) { pp := p; o.hardware = &pp }
}

// WithCollectReport fills r with per-variant completion accounting after
// CollectDatasetE returns: how many variants completed, how many samples each
// contributed, and which variants were skipped (with the error that felled
// them). Applies to CollectDatasetE.
func WithCollectReport(r *CollectReport) Option {
	return func(o *options) { o.report = r }
}

// applyCollector overlays explicitly set options onto a CollectorConfig.
func (o *options) applyCollector(cfg *CollectorConfig) {
	if o.bins != nil {
		cfg.Bins = *o.bins
	}
	if o.minOps != nil {
		cfg.MinOpsPerWindow = *o.minOps
	}
	if o.baseline != nil {
		cfg.IncludeBaseline = *o.baseline
	}
}
