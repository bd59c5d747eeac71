package online

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"quanterference/internal/core"
	"quanterference/internal/dataset"
	"quanterference/internal/ml"
	"quanterference/internal/monitor/window"
	"quanterference/internal/obs"
	"quanterference/internal/shadow"
	"quanterference/internal/sim"
)

const (
	testTargets = 3
	testFeat    = 5
)

// syntheticDataset builds a separable two-class problem: class 1 vectors sit
// `shift` above class 0.
func syntheticDataset(tb testing.TB, n int, seed int64, shift float64) *dataset.Dataset {
	tb.Helper()
	names := make([]string, testFeat)
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i)
	}
	ds := dataset.New(names, testTargets, 2)
	rng := sim.NewRNG(seed)
	for i := 0; i < n; i++ {
		label := i % 2
		vecs := make([][]float64, testTargets)
		for t := range vecs {
			v := make([]float64, testFeat)
			for f := range v {
				v[f] = rng.NormFloat64() + float64(label)*shift
			}
			vecs[t] = v
		}
		deg := 1.0
		if label == 1 {
			deg = 3.0 // class 1 under the default binary bins (>=2x)
		}
		ds.Add(&dataset.Sample{Label: label, Degradation: deg, Vectors: vecs})
	}
	return ds
}

func trainedFramework(tb testing.TB, seed int64) *core.Framework {
	tb.Helper()
	fw, _, err := core.TrainFrameworkE(syntheticDataset(tb, 80, seed, 3), core.FrameworkConfig{
		Seed: seed, Train: ml.TrainConfig{Epochs: 80},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return fw
}

// driftedMatrix produces a matrix far outside the training distribution with
// a class-1 shape.
func driftedMatrix(rng *sim.RNG) window.Matrix {
	mat := make(window.Matrix, testTargets)
	for t := range mat {
		v := make([]float64, testFeat)
		for f := range v {
			v[f] = rng.NormFloat64() + 8
		}
		mat[t] = v
	}
	return mat
}

type fakePromoter struct {
	fw      *core.Framework
	refuse  bool
	reloads int
}

func (p *fakePromoter) Framework() *core.Framework { return p.fw }

func (p *fakePromoter) ReloadFramework(fw *core.Framework) error {
	if p.refuse {
		return errors.New("fake: refused")
	}
	p.fw = fw
	p.reloads++
	return nil
}

// quickConfig trips fast on the synthetic drift stream.
func quickConfig(seed int64) Config {
	return Config{
		Seed:        seed,
		RefAccuracy: 0.95,
		Drift:       DriftConfig{MinEffect: 1.0, FeatureFrac: 0.3},
		Train:       ml.TrainConfig{Epochs: 10},
	}
}

// driftWindows is how many drifted labeled windows the loop tests feed: past
// minExamples for the first retrain, then enough detector cooldowns of
// minWindows for several more.
const driftWindows = 2 * minExamples

// feedDrift pushes n drifted labeled windows through the loop, stepping
// after each, and returns every non-none decision.
func feedDrift(t *testing.T, l *Loop, rng *sim.RNG, n int) []Decision {
	t.Helper()
	var actions []Decision
	for i := 0; i < n; i++ {
		mat := driftedMatrix(rng)
		l.OfferWindow(mat)
		l.OfferLabeled(Example{Window: i, Matrix: mat, Degradation: 3})
		d, err := l.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if d.Action != ActionNone {
			actions = append(actions, d)
		}
	}
	return actions
}

func TestLoopPromotesOnDrift(t *testing.T) {
	fw := trainedFramework(t, 1)
	p := &fakePromoter{fw: fw}
	l, err := NewLoop(p, quickConfig(7))
	if err != nil {
		t.Fatal(err)
	}

	// Healthy stream first: in-distribution windows must not trip anything.
	healthy := syntheticDataset(t, 40, 99, 3)
	for i, s := range healthy.Samples {
		l.OfferWindow(window.Matrix(s.Vectors))
		l.OfferLabeled(Example{Window: i, Matrix: window.Matrix(s.Vectors), Degradation: s.Degradation})
		d, err := l.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if d.Action != ActionNone {
			t.Fatalf("healthy stream produced %v", d)
		}
	}

	actions := feedDrift(t, l, sim.NewRNG(3), driftWindows)
	if len(actions) == 0 {
		t.Fatal("drifted stream never tripped")
	}
	promotes := 0
	for _, d := range actions {
		if d.Action == ActionPromote {
			promotes++
			if d.Gate == nil || !d.Gate.Promote {
				t.Fatalf("promotion without a passing gate: %v", d)
			}
			if len(d.CandidateWeights) == 0 {
				t.Fatalf("promotion without weights: %v", d)
			}
		}
	}
	if promotes == 0 {
		t.Fatalf("no promotion in %v", actions)
	}
	if p.reloads != promotes {
		t.Fatalf("promoter saw %d reloads, loop reported %d promotions", p.reloads, promotes)
	}
	if p.fw == fw {
		t.Fatal("promoter still serves the original framework")
	}
	// The loop's evaluation incumbent must be a distinct clone of the
	// promoted candidate, never the served instance itself.
	if l.Incumbent() == p.fw {
		t.Fatal("loop shares its evaluation framework with the promoter")
	}
}

func TestLoopForcedRejectKeepsIncumbent(t *testing.T) {
	fw := trainedFramework(t, 1)
	p := &fakePromoter{fw: fw}
	l, err := NewLoop(p, quickConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	l.SetGateMargin(shadow.RejectAll) // impossible bar: accuracy cannot exceed incumbent + 2

	actions := feedDrift(t, l, sim.NewRNG(3), driftWindows)
	if len(actions) == 0 {
		t.Fatal("drifted stream never tripped")
	}
	for _, d := range actions {
		if d.Action != ActionReject {
			t.Fatalf("impossible gate let %v through", d)
		}
		if d.Gate.Promote {
			t.Fatalf("gate verdict inconsistent: %+v", d.Gate)
		}
	}
	if p.fw != fw || p.reloads != 0 {
		t.Fatal("rejected candidate reached the promoter")
	}
}

func TestLoopRollbackOnRefusedReload(t *testing.T) {
	fw := trainedFramework(t, 1)
	p := &fakePromoter{fw: fw, refuse: true}
	l, err := NewLoop(p, quickConfig(7))
	if err != nil {
		t.Fatal(err)
	}

	actions := feedDrift(t, l, sim.NewRNG(3), driftWindows)
	if len(actions) == 0 {
		t.Fatal("drifted stream never tripped")
	}
	rollbacks := 0
	for _, d := range actions {
		if d.Action == ActionPromote {
			t.Fatalf("refused reload reported as promotion: %v", d)
		}
		if d.Rollback {
			rollbacks++
		}
	}
	if rollbacks == 0 {
		t.Fatalf("no rollback recorded in %v", actions)
	}
	if p.fw != fw {
		t.Fatal("framework swapped despite refusal")
	}
	if got, _ := l.Stats().Counter("online", "", "rollbacks"); got == 0 {
		t.Fatalf("rollback counter not incremented: %+v", l.Stats().Counters)
	}
}

// TestLoopDeterministic pins the continuous-learning determinism contract:
// same seed + same stream = identical decisions and bit-identical candidate
// weights, including through the parallel training path.
func TestLoopDeterministic(t *testing.T) {
	run := func(workers int) []Decision {
		fw := trainedFramework(t, 1)
		cfg := quickConfig(7)
		cfg.Train.Workers = workers
		l, err := NewLoop(&fakePromoter{fw: fw}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return feedDrift(t, l, sim.NewRNG(3), driftWindows)
	}
	a, b := run(1), run(1)
	if len(a) == 0 {
		t.Fatal("no decisions to compare")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed runs diverged:\n%v\n%v", a, b)
	}
	c := run(4)
	if !reflect.DeepEqual(a, c) {
		t.Fatalf("Workers=4 diverged from Workers=1:\n%v\n%v", a, c)
	}
}

func TestLoopWaitsForExamples(t *testing.T) {
	fw := trainedFramework(t, 1)
	l, err := NewLoop(&fakePromoter{fw: fw}, quickConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	// Drifted windows but no labels: drift must be visible yet no retrain
	// can fire.
	rng := sim.NewRNG(3)
	sawDrift := false
	for i := 0; i < minWindows+2; i++ {
		l.OfferWindow(driftedMatrix(rng))
		d, err := l.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if d.Action != ActionNone {
			t.Fatalf("retrain without examples: %v", d)
		}
		if d.Score.Drifted {
			sawDrift = true
		}
	}
	if !sawDrift {
		t.Fatal("drift never became visible")
	}
}

func TestLoopObservability(t *testing.T) {
	fw := trainedFramework(t, 1)
	sink := obs.New()
	cfg := quickConfig(7)
	cfg.Sink = sink
	l, err := NewLoop(&fakePromoter{fw: fw}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedDrift(t, l, sim.NewRNG(3), driftWindows)
	snap := sink.Snapshot()
	for _, name := range []string{"windows", "labeled", "drift_trips", "retrains"} {
		if got, ok := snap.Counter("online", "", name); !ok || got == 0 {
			t.Errorf("counter online/%s not incremented: %+v", name, snap.Counters)
		}
	}
}

// TestGateMath pins the retrain gate: the candidate scored on the holdout
// is the one challenger of shadow.Gate, at least one sample must be held
// out, and the default margin lets it give up 0.02 of accuracy.
func TestGateMath(t *testing.T) {
	fw := trainedFramework(t, 1)
	holdout := syntheticDataset(t, 20, 5, 3)
	retrainGate := func(holdout *dataset.Dataset, margin float64) shadow.GateResult {
		return shadow.Gate(1, scoreOn("incumbent", fw, holdout),
			[]shadow.Score{scoreOn("candidate", fw, holdout)}, margin, 1)
	}
	g := retrainGate(holdout, retrainMargin)
	if !g.Promote || g.Winner != "candidate" {
		t.Fatalf("equal accuracies under the default margin must promote: %+v", g)
	}
	if g.CandidateAccuracy != g.IncumbentAccuracy {
		t.Fatalf("same framework scored differently: %+v", g)
	}
	if g.Samples != holdout.Len() {
		t.Fatalf("holdout size %d, want %d", g.Samples, holdout.Len())
	}
	g = retrainGate(holdout, 0.5)
	if g.Promote {
		t.Fatalf("a 0.5 lead demanded at equal accuracies must reject: %+v", g)
	}
	empty := dataset.New(holdout.FeatureNames, testTargets, 2)
	if g := retrainGate(empty, retrainMargin); g.Promote {
		t.Fatalf("empty holdout must reject: %+v", g)
	}
}

func TestBufferReservoir(t *testing.T) {
	mk := func(seed int64, n int) *Buffer {
		b := NewBuffer(16, seed)
		for i := 0; i < n; i++ {
			b.Offer(Example{Window: i, Degradation: float64(i)})
		}
		return b
	}
	b := mk(1, 10)
	if b.Len() != 10 || b.Seen() != 10 {
		t.Fatalf("len=%d seen=%d", b.Len(), b.Seen())
	}
	b = mk(1, 500)
	if b.Len() != 16 || b.Seen() != 500 {
		t.Fatalf("len=%d seen=%d", b.Len(), b.Seen())
	}
	// Same seed, same offer sequence: identical retained set.
	b2 := mk(1, 500)
	if !reflect.DeepEqual(b.items, b2.items) {
		t.Fatal("same-seed reservoirs diverged")
	}
	// A different seed keeps different survivors.
	b3 := mk(2, 500)
	if reflect.DeepEqual(b.items, b3.items) {
		t.Fatal("different seeds kept identical reservoirs (suspicious)")
	}
	// Retention is roughly uniform over the stream, not just the head or
	// tail: with cap 16 of 500, at least one survivor from each half.
	lo, hi := 0, 0
	for _, ex := range b.items {
		if ex.Window < 250 {
			lo++
		} else {
			hi++
		}
	}
	if lo == 0 || hi == 0 {
		t.Fatalf("reservoir degenerate: %d early, %d late", lo, hi)
	}
}

func TestBufferDataset(t *testing.T) {
	b := NewBuffer(8, 1)
	mat := make(window.Matrix, testTargets)
	for t := range mat {
		mat[t] = make([]float64, testFeat)
	}
	for i := 0; i < 5; i++ {
		b.Offer(Example{Window: i, Matrix: mat, Degradation: 2.5, Label: 1})
	}
	names := []string{"a", "b", "c", "d", "e"}
	ds := b.Dataset(names, testTargets, 2, "nvme")
	if ds.Len() != 5 || ds.NTargets != testTargets || ds.Classes != 2 {
		t.Fatalf("dataset %d samples, %d targets, %d classes", ds.Len(), ds.NTargets, ds.Classes)
	}
	if ds.Profile != "nvme" {
		t.Fatalf("buffer dataset profile %q, want the loop's stamp", ds.Profile)
	}
	for i, s := range ds.Samples {
		if s.Window != i || s.Label != 1 {
			t.Fatalf("sample %d out of order or mislabeled: %+v", i, s)
		}
	}
}

func TestDetectorDistributionShift(t *testing.T) {
	ref := &dataset.Scaler{Mean: []float64{0, 0, 0}, Std: []float64{1, 1, 1}}
	cfg := DriftConfig{FeatureFrac: 0.5, MinEffect: 1.0}
	d := NewDetector(ref, 0, cfg)

	inDist := window.Matrix{{0.1, -0.1, 0.05}, {-0.2, 0.1, 0}}
	for i := 0; i < 20; i++ {
		d.ObserveWindow(inDist)
	}
	if s := d.Score(); s.Drifted {
		t.Fatalf("in-distribution stream tripped: %+v", s)
	}

	d.Reset(ref, 0)
	shifted := window.Matrix{{3, 3, 0}, {3, 3, 0}} // 2 of 3 features shifted 3 std
	for i := 0; i < 20; i++ {
		d.ObserveWindow(shifted)
	}
	s := d.Score()
	if !s.Drifted || s.Reason != "features" {
		t.Fatalf("shifted stream did not trip: %+v", s)
	}
	if s.FeatureFrac < 0.5 || s.MaxEffect < 2.5 {
		t.Fatalf("unexpected score: %+v", s)
	}

	// Reset is a cooldown: the statistics are gone until minWindows
	// re-accumulate.
	d.Reset(ref, 0)
	if s := d.Score(); s.Drifted || s.Windows != 0 {
		t.Fatalf("reset did not clear the stream: %+v", s)
	}
}

func TestDetectorVarianceExplosion(t *testing.T) {
	ref := &dataset.Scaler{Mean: []float64{0, 0}, Std: []float64{1, 1}}
	d := NewDetector(ref, 0, DriftConfig{FeatureFrac: 0.5})
	// Zero-mean but wildly spread (variance ~100, past the 16x ratio): the
	// mean z-test stays quiet, the variance ratio must not.
	rng := sim.NewRNG(1)
	for i := 0; i < 50; i++ {
		x := rng.NormFloat64() * 10
		d.ObserveWindow(window.Matrix{{x, -x}, {-x, x}})
	}
	s := d.Score()
	if !s.Drifted {
		t.Fatalf("variance explosion not detected: %+v", s)
	}
}

func TestDetectorQualityDecay(t *testing.T) {
	ref := &dataset.Scaler{Mean: []float64{0}, Std: []float64{1}}
	cfg := DriftConfig{}
	d := NewDetector(ref, 0.95, cfg)
	// Accurate labels first, past minLabeled: no trip.
	for i := 0; i < qualityWindow; i++ {
		d.ObserveLabeled(true, 0.05)
	}
	if s := d.Score(); s.Drifted {
		t.Fatalf("accurate stream tripped: %+v", s)
	}
	// Then the model falls apart for a whole rolling window; it must trip.
	for i := 0; i < qualityWindow; i++ {
		d.ObserveLabeled(false, 3.0)
	}
	s := d.Score()
	if !s.Drifted || s.Reason != "quality" {
		t.Fatalf("quality decay not detected: %+v", s)
	}
	if s.RollingAccuracy > 0.05 || s.RollingCE < 1 {
		t.Fatalf("rolling stats wrong: %+v", s)
	}

	// With no reference accuracy the quality signal stays disabled.
	d2 := NewDetector(ref, 0, cfg)
	for i := 0; i < qualityWindow; i++ {
		d2.ObserveLabeled(false, 3.0)
	}
	if s := d2.Score(); s.Drifted {
		t.Fatalf("quality signal tripped without a reference: %+v", s)
	}
}

func TestDetectorScoreDeterministic(t *testing.T) {
	ref := &dataset.Scaler{Mean: []float64{0, 0}, Std: []float64{1, 1}}
	mk := func() Score {
		d := NewDetector(ref, 0.9, DriftConfig{})
		rng := sim.NewRNG(11)
		for i := 0; i < 30; i++ {
			d.ObserveWindow(window.Matrix{{rng.NormFloat64() + 2, rng.NormFloat64()}})
			d.ObserveLabeled(i%3 == 0, 0.7)
		}
		return d.Score()
	}
	a, b := mk(), mk()
	if a != b {
		t.Fatalf("scores diverged:\n%+v\n%+v", a, b)
	}
	if math.IsNaN(a.FeatureFrac) || math.IsNaN(a.RollingCE) {
		t.Fatalf("NaN in score: %+v", a)
	}
}
