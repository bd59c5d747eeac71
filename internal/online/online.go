// Package online is the continuous-learning pipeline around a serving
// framework: it watches the live window stream for distribution drift and
// prediction-quality decay, keeps a bounded reservoir of delayed-labeled
// examples, retrains a candidate warm-started from the incumbent's weights
// when drift trips, and promotes the candidate through the serving layer's
// atomic hot-reload only if it clears the promotion gate (shadow.Gate, with
// the candidate as its one challenger) on a holdout neither model trained
// on — otherwise the incumbent keeps serving (rollback).
//
// Everything downstream of the window stream is deterministic: the example
// reservoir, the drift statistics, the holdout split, and the warm-started
// retrain are all seeded, so two same-seed replays of the same stream make
// identical drift decisions and promote bit-identical weights.
//
// Ownership: the serving layer owns the framework it serves (its
// Predict/PredictBatch reuse scratch and are funneled through one batcher
// goroutine), so the Loop never touches it. The Loop holds a private
// evaluation clone of the incumbent for labeling and gate scoring, hands a
// fresh candidate to the promoter on promotion, and re-clones it for its own
// use. The Loop itself is single-goroutine: feed it from one place.
package online

import (
	"context"
	"fmt"
	"math"
	"time"

	"quanterference/internal/core"
	"quanterference/internal/dataset"
	"quanterference/internal/ml"
	"quanterference/internal/monitor/window"
	"quanterference/internal/obs"
	"quanterference/internal/shadow"
)

// Promoter is where gated candidates go — the programmatic surface of
// serve.Server (Framework / ReloadFramework).
type Promoter interface {
	// Framework returns the currently served framework. The Loop only reads
	// its identity (rollback verification); it never predicts with it.
	Framework() *core.Framework
	// ReloadFramework atomically swaps the served framework; ownership of the
	// argument transfers to the promoter. An error means the swap was refused
	// and the old framework still serves.
	ReloadFramework(fw *core.Framework) error
}

// streamProfile is the hardware profile stamped on every dataset the loop
// assembles from its reservoir, so online-retrained data merges cleanly with
// offline collections instead of reading as unstamped.
const streamProfile = "paper"

const (
	// bufferCap bounds the labeled-example reservoir.
	bufferCap = 256
	// minExamples is how many buffered examples a retrain needs; drift trips
	// below it stay pending until enough labels arrive.
	minExamples = 32
)

// Config tunes the Loop. The zero value is usable everywhere except
// RefAccuracy, which should carry the incumbent's training holdout accuracy
// (0 leaves the quality-decay signal disabled until the first promotion).
// The reservoir holds 256 labeled examples, and a retrain needs 32 of them.
type Config struct {
	// Seed drives every stochastic choice (reservoir, splits, retrain
	// shuffling); same seed + same stream = same decisions and weights.
	Seed int64
	// RefAccuracy is the incumbent's holdout accuracy at training time — the
	// baseline the quality-decay drift signal compares against.
	RefAccuracy float64
	// Drift tunes the detector, Train the retrain (epochs, LR, Workers —
	// warm starts reuse the incumbent architecture).
	Drift DriftConfig
	Train ml.TrainConfig
	// Sink receives the loop's counters and histograms. Nil allocates a
	// private sink so Stats always works.
	Sink *obs.Sink
}

func (c *Config) applyDefaults() {
	if c.Sink == nil {
		c.Sink = obs.New()
	}
}

// Action is what a Step did.
type Action int

const (
	// ActionNone: healthy, or drift pending more labeled examples.
	ActionNone Action = iota
	// ActionPromote: a retrained candidate cleared the gate and now serves.
	ActionPromote
	// ActionReject: a candidate was trained and discarded (gate failure or
	// refused reload); the incumbent keeps serving.
	ActionReject
)

func (a Action) String() string {
	switch a {
	case ActionPromote:
		return "promote"
	case ActionReject:
		return "reject"
	default:
		return "none"
	}
}

// Decision is one Step's outcome.
type Decision struct {
	// Window is the stream position, filled in by Replay (-1 from a bare
	// Step).
	Window int
	// Action is the verdict; Score the drift evaluation behind it.
	Action Action
	Score  Score
	// Gate and CandidateWeights are set when a retrain ran: the gate verdict
	// and the candidate's bit-exact weight snapshot (the determinism tests
	// compare these across same-seed runs).
	Gate             *shadow.GateResult
	CandidateWeights [][]float64
	// Rollback marks a promotion the promoter refused (the candidate cleared
	// the gate but the reload failed); the incumbent was kept.
	Rollback bool
}

// String renders the decision for logs. It prints the gate's margin
// negated, as the accuracy the candidate was allowed to give up ("margin
// 0.02" by default, "margin -2" under shadow.RejectAll).
func (d Decision) String() string {
	if d.Gate == nil {
		if d.Score.Drifted {
			return fmt.Sprintf("w%d none (drift %q pending examples)", d.Window, d.Score.Reason)
		}
		return fmt.Sprintf("w%d none", d.Window)
	}
	s := fmt.Sprintf("w%d %s (drift %q, cand %.3f vs inc %.3f on %d held out, margin %g)",
		d.Window, d.Action, d.Score.Reason,
		d.Gate.CandidateAccuracy, d.Gate.IncumbentAccuracy, d.Gate.Samples, -d.Gate.Margin)
	if d.Rollback {
		s += " [rollback: reload refused]"
	}
	return s
}

// Loop is the continuous-learning controller. Not goroutine-safe: one
// goroutine feeds windows/labels and calls Step; the promoter it drives may
// serve concurrently.
type Loop struct {
	cfg      Config
	promoter Promoter

	// incumbent is the Loop's private evaluation clone of whatever the
	// promoter serves: used for labeling outcomes and gate scoring without
	// touching the served instance.
	incumbent *core.Framework
	refAcc    float64
	margin    float64
	det       *Detector
	buf       *Buffer
	retrains  int

	mWindows    *obs.Counter
	mLabeled    *obs.Counter
	mDriftTrips *obs.Counter
	mRetrains   *obs.Counter
	mPromotions *obs.Counter
	mRejections *obs.Counter
	mRollbacks  *obs.Counter
	gBuffer     *obs.Gauge
	hDriftFrac  *obs.Histogram
	hRollAcc    *obs.Histogram
	hGateAcc    *obs.Histogram
	hRetrainNS  *obs.Histogram
}

// NewLoop builds the controller around a promoter that is already serving an
// incumbent. The Loop clones that incumbent for private evaluation, so the
// promoter may keep serving it concurrently.
func NewLoop(p Promoter, cfg Config) (*Loop, error) {
	cfg.applyDefaults()
	inc, err := p.Framework().Clone()
	if err != nil {
		return nil, fmt.Errorf("online: cloning incumbent: %w", err)
	}
	l := &Loop{
		cfg:       cfg,
		promoter:  p,
		incumbent: inc,
		refAcc:    cfg.RefAccuracy,
		margin:    retrainMargin,
		det:       NewDetector(inc.Scaler, cfg.RefAccuracy, cfg.Drift),
		buf:       NewBuffer(bufferCap, cfg.Seed^0xb0ffe4),

		mWindows:    cfg.Sink.Counter("online", "", "windows"),
		mLabeled:    cfg.Sink.Counter("online", "", "labeled"),
		mDriftTrips: cfg.Sink.Counter("online", "", "drift_trips"),
		mRetrains:   cfg.Sink.Counter("online", "", "retrains"),
		mPromotions: cfg.Sink.Counter("online", "", "promotions"),
		mRejections: cfg.Sink.Counter("online", "", "rejections"),
		mRollbacks:  cfg.Sink.Counter("online", "", "rollbacks"),
		gBuffer:     cfg.Sink.Gauge("online", "", "buffer_fill"),
		hDriftFrac:  cfg.Sink.Histogram("online", "", "feature_drift_frac", obs.UnitBuckets()),
		hRollAcc:    cfg.Sink.Histogram("online", "", "rolling_accuracy", obs.UnitBuckets()),
		hGateAcc:    cfg.Sink.Histogram("online", "", "gate_candidate_accuracy", obs.UnitBuckets()),
		hRetrainNS:  cfg.Sink.Histogram("online", "", "retrain_ns", obs.TimeBuckets()),
	}
	return l, nil
}

// Stats snapshots the loop's metrics.
func (l *Loop) Stats() *obs.Snapshot { return l.cfg.Sink.Snapshot() }

// Incumbent returns the Loop's private evaluation clone of the serving
// model. Callers may Predict on it only from the Loop's goroutine.
func (l *Loop) Incumbent() *core.Framework { return l.incumbent }

// BufferLen is the resident labeled-example count.
func (l *Loop) BufferLen() int { return l.buf.Len() }

// bufferSchema derives the dataset schema the reservoir exports and retrains
// under: the incumbent's dims, with synthesized names when the feature width
// is non-standard (ablations, tests).
func (l *Loop) bufferSchema() (names []string, nTargets, classes int) {
	nTargets, nFeat := l.incumbent.Dims()
	names = window.FeatureNames()
	if len(names) != nFeat {
		names = make([]string, nFeat)
		for i := range names {
			names[i] = fmt.Sprintf("f%d", i)
		}
	}
	return names, nTargets, l.incumbent.Classes()
}

// ExportBuffer snapshots the labeled-example reservoir as a dataset stamped
// with the loop's hardware profile and instance as the run name — the
// persistence/interchange hook the fleet layer uses: each replica exports
// under its own name, the coordinator merges the exports with
// dataset.MergeAll, and the merged history digests identically regardless of
// which replica answered first. Vectors are shared with the buffered
// matrices (read-only); Save the export for a disk round trip.
func (l *Loop) ExportBuffer(instance string) *dataset.Dataset {
	names, nTargets, classes := l.bufferSchema()
	return l.buf.DatasetAs(instance, names, nTargets, classes, streamProfile)
}

// ImportBuffer replays an exported reservoir dataset (another instance's
// ExportBuffer, or this one's reloaded after a restart) through the loop's
// reservoir in sample order, after checking it matches the incumbent's input
// schema. The buffer stays a deterministic function of its seed and the
// complete offer sequence.
func (l *Loop) ImportBuffer(ds *dataset.Dataset) error {
	names, nTargets, classes := l.bufferSchema()
	if ds.NTargets != nTargets || len(ds.FeatureNames) != len(names) || ds.Classes != classes {
		return fmt.Errorf("%w: import is %dx%d/%d classes, incumbent reads %dx%d/%d classes",
			dataset.ErrSchemaMismatch, ds.NTargets, len(ds.FeatureNames), ds.Classes,
			nTargets, len(names), classes)
	}
	l.buf.ImportDataset(ds)
	l.gBuffer.Set(float64(l.buf.Len()))
	return nil
}

// SetGateMargin sets the accuracy lead over the incumbent a candidate needs
// from the next step on (-0.02 until set). The rollback drill sets
// shadow.RejectAll to force-reject every candidate.
func (l *Loop) SetGateMargin(m float64) { l.margin = m }

// OfferWindow feeds one live window into the drift detector's distribution
// stream.
func (l *Loop) OfferWindow(mat window.Matrix) {
	l.det.ObserveWindow(mat)
	l.mWindows.Inc()
}

// OfferLabeled feeds one delayed-labeled window: the example enters the
// retraining reservoir, and the incumbent's prediction on it feeds the
// quality-decay drift signal. ex.Label is derived from ex.Degradation under
// the incumbent's bins.
func (l *Loop) OfferLabeled(ex Example) {
	ex.Label = l.incumbent.Bins.Label(ex.Degradation)
	l.buf.Offer(ex)
	l.gBuffer.Set(float64(l.buf.Len()))

	class, probs := l.incumbent.Predict(ex.Matrix)
	ce := -math.Log(math.Max(probs[ex.Label], 1e-12))
	l.det.ObserveLabeled(class == ex.Label, ce)
	l.mLabeled.Inc()
}

// Step evaluates drift and, when it trips with enough buffered examples,
// runs the full retrain → gate → promote/reject round. The error path is
// infrastructure only (cancellation, clone failure); gate rejections and
// refused reloads are reported in the Decision, not as errors.
func (l *Loop) Step(ctx context.Context) (Decision, error) {
	score := l.det.Score()
	l.hDriftFrac.Observe(score.FeatureFrac)
	if score.Labeled > 0 {
		l.hRollAcc.Observe(score.RollingAccuracy)
	}
	d := Decision{Window: -1, Action: ActionNone, Score: score}
	if !score.Drifted || l.buf.Len() < minExamples {
		return d, nil
	}
	l.mDriftTrips.Inc()

	start := time.Now()
	candidate, gate, err := l.retrain(ctx)
	l.hRetrainNS.Observe(float64(time.Since(start)))
	if err != nil {
		return d, err
	}
	l.mRetrains.Inc()
	d.Gate = &gate
	d.CandidateWeights = candidate.ExportWeights()

	if !gate.Promote {
		l.mRejections.Inc()
		d.Action = ActionReject
		// Reset starts a cooldown: the detector re-accumulates from scratch
		// before it can trip again, so a rejected candidate is not retried
		// on the very next window.
		l.det.Reset(l.incumbent.Scaler, l.refAcc)
		return d, nil
	}

	// Clone before handing over: ownership of candidate transfers to the
	// promoter, and the Loop needs its own evaluation copy.
	next, err := candidate.Clone()
	if err != nil {
		return d, fmt.Errorf("online: cloning candidate: %w", err)
	}
	if rerr := l.promoter.ReloadFramework(candidate); rerr != nil {
		// Rollback: the promoter refused the swap, the incumbent still
		// serves, and the loop keeps evaluating against it.
		l.mRollbacks.Inc()
		l.mRejections.Inc()
		d.Action = ActionReject
		d.Rollback = true
		l.det.Reset(l.incumbent.Scaler, l.refAcc)
		return d, nil
	}
	l.incumbent = next
	l.refAcc = gate.CandidateAccuracy
	l.mPromotions.Inc()
	d.Action = ActionPromote
	l.det.Reset(l.incumbent.Scaler, l.refAcc)
	return d, nil
}

// retrain trains a warm-started candidate on the reservoir (minus the gate
// holdout) and scores it against the incumbent.
func (l *Loop) retrain(ctx context.Context) (*core.Framework, shadow.GateResult, error) {
	l.retrains++
	// A fresh seed per round keeps rounds independent while staying a pure
	// function of (Config.Seed, round number).
	seed := l.cfg.Seed ^ int64(l.retrains)*0x9e3779b9

	names, nTargets, classes := l.bufferSchema()
	ds := l.buf.Dataset(names, nTargets, classes, streamProfile)
	trainDS, holdout := ds.Split(holdFrac, seed^0x60a7)
	if trainDS.Len() == 0 || holdout.Len() == 0 {
		return nil, shadow.GateResult{}, fmt.Errorf("online: degenerate holdout split (%d train / %d held out of %d)",
			trainDS.Len(), holdout.Len(), ds.Len())
	}

	cfg := core.FrameworkConfig{Seed: seed, Train: l.cfg.Train}
	cfg.Train.Seed = seed ^ 0x7e57
	candidate, _, err := core.TrainFrameworkCtx(ctx, trainDS, cfg, core.WithWarmStart(l.incumbent))
	if err != nil {
		return nil, shadow.GateResult{}, fmt.Errorf("online: retrain: %w", err)
	}
	// The candidate is the gate's one challenger; the split above leaves at
	// least one sample behind both scores.
	gate := shadow.Gate(seed, scoreOn("incumbent", l.incumbent, holdout),
		[]shadow.Score{scoreOn("candidate", candidate, holdout)}, l.margin, 1)
	l.hGateAcc.Observe(gate.CandidateAccuracy)
	return candidate, gate, nil
}
