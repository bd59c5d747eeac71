package online

import (
	"fmt"
	"math"

	"quanterference/internal/dataset"
	"quanterference/internal/monitor/window"
)

// The detector's fixed thresholds.
const (
	// zCrit is the per-feature z threshold on the streaming-mean test. The z
	// statistic grows with sqrt(observations), so the MinEffect gate keeps
	// tiny-but-significant shifts from tripping.
	zCrit = 8
	// varRatio flags a feature whose streaming variance exceeds the training
	// variance by this factor. The test is high-side only: a narrowing
	// distribution (e.g. a quiet stretch of a pooled training mix) is not
	// actionable drift.
	varRatio = 16
	// minWindows is the number of observed windows before the distribution
	// test is live.
	minWindows = 8
	// qualityWindow is the rolling window, in labeled samples, of the
	// prediction-quality signal.
	qualityWindow = 32
	// minLabeled is the number of labeled samples before the quality test is
	// live.
	minLabeled = 16
	// accuracyDrop trips the quality signal when rolling accuracy falls this
	// far below the reference accuracy.
	accuracyDrop = 0.2
)

// DriftConfig tunes the Detector's distribution signal. The zero value is
// usable: every field defaults to the value the continuous-learning loop
// ships with.
type DriftConfig struct {
	// MinEffect is the minimum standardized mean shift |mean-ref|/refStd a
	// feature needs to count as drifted (default 0.75 reference standard
	// deviations), so high-volume streams still need a material shift.
	MinEffect float64
	// FeatureFrac is the fraction of features that must drift to trip the
	// distribution signal (default 0.25).
	FeatureFrac float64
}

func (c *DriftConfig) applyDefaults() {
	if c.MinEffect == 0 {
		c.MinEffect = 0.75
	}
	if c.FeatureFrac == 0 {
		c.FeatureFrac = 0.25
	}
}

// Score is one drift evaluation: the two signals, their inputs, and the
// combined verdict. Scores are pure functions of the observed windows and
// labels, so same-seed runs produce identical Score sequences.
type Score struct {
	// Windows and Labeled count the observations behind each signal.
	Windows int
	Labeled int
	// FeatureFrac is the fraction of features currently drifted (mean z-test
	// with effect-size gate, or variance-ratio test); MaxZ and MaxEffect are
	// the largest per-feature statistics behind it.
	FeatureFrac float64
	MaxZ        float64
	MaxEffect   float64
	// RollingAccuracy and RollingCE summarize the labeled quality window
	// (accuracy 0 and CE 0 until anything is labeled).
	RollingAccuracy float64
	RollingCE       float64
	// Drifted is the combined verdict; Reason says which signal tripped
	// ("features", "quality", or "features+quality"; empty when healthy).
	Drifted bool
	Reason  string
}

// Detector is the drift detector of the continuous-learning loop. It
// combines two signals against a training-time reference:
//
//   - distribution shift: per-feature streaming mean/variance tested against
//     the incumbent's scaler snapshot (the training set's mean/std), with a
//     z-test gated by a minimum effect size and a variance-ratio test, live
//     after minWindows windows;
//   - prediction-quality decay: rolling accuracy and cross-entropy over the
//     last qualityWindow delayed-labeled windows, compared to the reference
//     (training holdout) accuracy, live after minLabeled labels.
//
// A Detector is deterministic (pure arithmetic over its observations) and is
// not goroutine-safe; the Loop owns one and calls it from a single
// goroutine.
type Detector struct {
	cfg    DriftConfig
	refM   []float64 // training-time per-feature mean
	refS   []float64 // training-time per-feature std (>= 1e-12, scaler contract)
	refAcc float64

	// Streaming distribution state: every per-target row of every observed
	// window is one observation, matching how FitScaler pooled targets.
	// Moments are kept in Welford form (running mean + sum of squared
	// deviations M2) rather than raw sum/sumSq: the single-pass
	// sumSq/n - mean^2 formula cancels catastrophically for large-magnitude
	// features (byte/op counters around 1e9 square to 1e18, where one float64
	// ulp is 128 — any real variance below that computes as 0 or negative),
	// which silently disabled the variance-ratio drift signal on exactly the
	// high-volume counters it exists to watch.
	nWin int
	n    float64
	mean []float64
	m2   []float64 // per-feature sum of squared deviations from the mean

	// Rolling quality ring.
	correct []bool
	ces     []float64
	labeled int // total labeled seen; ring index = labeled % len
}

// NewDetector builds a detector against a training snapshot: ref carries the
// per-feature mean/std of the incumbent's training data (its fitted scaler),
// refAccuracy the incumbent's holdout accuracy at training time (0 disables
// the quality signal until Reset provides one).
func NewDetector(ref *dataset.Scaler, refAccuracy float64, cfg DriftConfig) *Detector {
	cfg.applyDefaults()
	d := &Detector{cfg: cfg}
	d.Reset(ref, refAccuracy)
	return d
}

// Reset re-references the detector — after a promotion (the new incumbent's
// scaler and gate accuracy become the baseline) or a rejection (clearing the
// streams enforces a re-accumulation cooldown before the next trip).
func (d *Detector) Reset(ref *dataset.Scaler, refAccuracy float64) {
	if ref == nil || len(ref.Mean) == 0 || len(ref.Mean) != len(ref.Std) {
		panic(fmt.Sprintf("online: bad detector reference scaler %+v", ref))
	}
	d.refM = append(d.refM[:0], ref.Mean...)
	d.refS = append(d.refS[:0], ref.Std...)
	d.refAcc = refAccuracy
	d.nWin, d.n = 0, 0
	d.mean = make([]float64, len(ref.Mean))
	d.m2 = make([]float64, len(ref.Mean))
	d.correct = d.correct[:0]
	d.ces = d.ces[:0]
	d.labeled = 0
}

// ObserveWindow feeds one live (unlabeled) window matrix into the
// distribution stream.
func (d *Detector) ObserveWindow(mat window.Matrix) {
	for _, row := range mat {
		if len(row) != len(d.refM) {
			panic(fmt.Sprintf("online: window row has %d features, reference has %d",
				len(row), len(d.refM)))
		}
		d.n++
		for f, x := range row {
			delta := x - d.mean[f]
			d.mean[f] += delta / d.n
			d.m2[f] += delta * (x - d.mean[f])
		}
	}
	d.nWin++
}

// ObserveLabeled feeds one delayed-labeled prediction outcome into the
// quality stream: whether the incumbent classified the window correctly, and
// its cross-entropy on the true label.
func (d *Detector) ObserveLabeled(correct bool, crossEntropy float64) {
	if len(d.correct) < qualityWindow {
		d.correct = append(d.correct, correct)
		d.ces = append(d.ces, crossEntropy)
	} else {
		i := d.labeled % qualityWindow
		d.correct[i] = correct
		d.ces[i] = crossEntropy
	}
	d.labeled++
}

// Score evaluates both signals at the current stream state.
func (d *Detector) Score() Score {
	s := Score{Windows: d.nWin, Labeled: d.labeled}

	if d.nWin >= minWindows && d.n > 1 {
		drifted := 0
		for f := range d.refM {
			mean := d.mean[f]
			variance := d.m2[f] / d.n // population variance, like FitScaler
			effect := math.Abs(mean-d.refM[f]) / d.refS[f]
			z := effect * math.Sqrt(d.n)
			if z > s.MaxZ {
				s.MaxZ = z
			}
			if effect > s.MaxEffect {
				s.MaxEffect = effect
			}
			refVar := d.refS[f] * d.refS[f]
			ratio := (variance + 1e-12) / (refVar + 1e-12)
			if (z > zCrit && effect > d.cfg.MinEffect) || ratio > varRatio {
				drifted++
			}
		}
		s.FeatureFrac = float64(drifted) / float64(len(d.refM))
	}

	if len(d.correct) > 0 {
		hits := 0
		var ce float64
		for i, ok := range d.correct {
			if ok {
				hits++
			}
			ce += d.ces[i]
		}
		s.RollingAccuracy = float64(hits) / float64(len(d.correct))
		s.RollingCE = ce / float64(len(d.ces))
	}

	features := s.FeatureFrac >= d.cfg.FeatureFrac
	quality := d.refAcc > 0 && d.labeled >= minLabeled &&
		d.refAcc-s.RollingAccuracy > accuracyDrop
	switch {
	case features && quality:
		s.Drifted, s.Reason = true, "features+quality"
	case features:
		s.Drifted, s.Reason = true, "features"
	case quality:
		s.Drifted, s.Reason = true, "quality"
	}
	return s
}
