package mitigate

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"quanterference/internal/core"
	"quanterference/internal/dataset"
	"quanterference/internal/forecast"
	"quanterference/internal/label"
	"quanterference/internal/lustre"
	"quanterference/internal/monitor/window"
	"quanterference/internal/nn"
	"quanterference/internal/sim"
	"quanterference/internal/workload"
)

// thresholdModel is a deterministic, training-free ml.Model for tests: it
// predicts class 1 whenever the first feature (cli_reads) of target 0
// exceeds 5.
type thresholdModel struct{}

func (thresholdModel) ProbsInto(dst []float64, vectors [][]float64) []float64 {
	if vectors[0][0] > 5 {
		return append(dst[:0], 0.1, 0.9)
	}
	return append(dst[:0], 0.9, 0.1)
}
func (thresholdModel) LossAndGrad([][]float64, int, float64) float64 { return 0 }
func (thresholdModel) Params() []nn.Param                            { return nil }

// stubFramework wraps the threshold model with an identity scaler.
func stubFramework() *core.Framework {
	nFeat := window.NumFeatures
	scaler := &dataset.Scaler{Mean: make([]float64, nFeat), Std: make([]float64, nFeat)}
	for i := range scaler.Std {
		scaler.Std[i] = 1
	}
	return &core.Framework{
		Bins:   label.BinaryBins(),
		Model:  thresholdModel{},
		Scaler: scaler,
	}
}

// mustNew attaches a reactive-throttle controller over the stub framework
// that throttles victim, for tests whose options must be valid.
func mustNew(t *testing.T, cl *core.Cluster, victim *lustre.Client, policyOpts []PolicyOption, opts ...ControllerOption) *Controller {
	t.Helper()
	policy, err := NewReactiveThrottle(policyOpts...)
	if err != nil {
		t.Fatalf("NewReactiveThrottle: %v", err)
	}
	ctrl, err := NewController(cl, stubFramework(), []Victim{{Client: victim}}, sim.Second, policy, opts...)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	return ctrl
}

// readRecord fabricates one read record targeting OST 0 in the given window.
func readRecord(windowIdx, seq int) workload.Record {
	start := sim.Time(windowIdx)*sim.Second + sim.Time(seq+1)*sim.Millisecond
	return workload.Record{
		Workload: "t", Rank: 0, Seq: seq,
		Op:    workload.Op{Kind: workload.Read, Size: 1 << 20},
		Start: start, End: start + sim.Millisecond,
		Targets: []int{0},
	}
}

func TestControllerEngagesAndReleases(t *testing.T) {
	cl := core.NewCluster(lustre.PaperTopology(), lustre.Config{})
	victim := cl.FS.Client("c1")
	ctrl := mustNew(t, cl, victim, []PolicyOption{WithReleaseAfter(2)}, WithThrottleBps(1e6))
	// Windows 0 and 1 look interfered (10 reads each); windows 2+ are
	// clean (no records).
	for w := 0; w < 2; w++ {
		for s := 0; s < 10; s++ {
			ctrl.Record(readRecord(w, s))
		}
	}
	// Advance through window 1's boundary: controller must be engaged.
	cl.Eng.RunUntil(sim.Seconds(2.5))
	if !ctrl.Engaged() {
		t.Fatalf("controller not engaged after hot windows: %+v", ctrl.Actions())
	}
	if !victim.RateLimited() {
		t.Fatal("victim not rate limited while engaged")
	}
	// Two clean windows (2 and 3) must release it; one is not enough.
	cl.Eng.RunUntil(sim.Seconds(3.5))
	if !ctrl.Engaged() {
		t.Fatal("released after a single clean window (hysteresis broken)")
	}
	cl.Eng.RunUntil(sim.Seconds(4.5))
	if ctrl.Engaged() {
		t.Fatal("controller should have released after two clean windows")
	}
	if victim.RateLimited() {
		t.Fatal("victim still limited after release")
	}
	// Engagements counted once despite repeated hot windows.
	engagements := 0
	for _, a := range ctrl.Actions() {
		if a.Switched && a.Engaged {
			engagements++
		}
	}
	if engagements != 1 {
		t.Fatalf("engagements=%d, want 1", engagements)
	}
	ctrl.Stop()
}

func TestControllerReEngages(t *testing.T) {
	cl := core.NewCluster(lustre.PaperTopology(), lustre.Config{})
	ctrl := mustNew(t, cl, cl.FS.Client("c1"), []PolicyOption{WithReleaseAfter(1)})
	// Hot window 0, clean 1, hot 2.
	for s := 0; s < 10; s++ {
		ctrl.Record(readRecord(0, s))
		ctrl.Record(readRecord(2, s))
	}
	cl.Eng.RunUntil(sim.Seconds(3.5))
	engagements := 0
	for _, a := range ctrl.Actions() {
		if a.Switched && a.Engaged {
			engagements++
		}
	}
	if engagements != 2 {
		t.Fatalf("engagements=%d, want 2 (re-engage after release)", engagements)
	}
	ctrl.Stop()
}

// TestNewRejectsInvalidConfig pins the typed-error contract of building a
// controller: a bad policy option fails in the policy constructor, a bad
// controller option or a nil policy in NewController, each with an error
// matching ErrInvalidConfig.
func TestNewRejectsInvalidConfig(t *testing.T) {
	cl := core.NewCluster(lustre.PaperTopology(), lustre.Config{})
	build := func(policyOpts []PolicyOption, opts ...ControllerOption) error {
		policy, err := NewReactiveThrottle(policyOpts...)
		if err != nil {
			return err
		}
		ctrl, err := NewController(cl, stubFramework(), nil, sim.Second, policy, opts...)
		if err == nil {
			ctrl.Stop()
		}
		return err
	}
	cases := []struct {
		name  string
		build func() error
	}{
		{"typoed-engage-class", func() error { return build([]PolicyOption{WithEngageClass(-5)}) }},
		{"negative-throttle", func() error { return build(nil, WithThrottleBps(-1)) }},
		{"negative-release", func() error { return build([]PolicyOption{WithReleaseAfter(-2)}) }},
		{"nil-policy", func() error {
			_, err := NewController(cl, stubFramework(), nil, sim.Second, nil)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.build()
			if err == nil {
				t.Fatal("invalid options accepted")
			}
			if !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("error %v does not match ErrInvalidConfig", err)
			}
		})
	}
}

func TestEngageAlwaysThrottlesOnCleanPredictions(t *testing.T) {
	cl := core.NewCluster(lustre.PaperTopology(), lustre.Config{})
	victim := cl.FS.Client("c1")
	ctrl := mustNew(t, cl, victim, []PolicyOption{WithEngageClass(0)})
	// Class-0 prediction: an engage-class-0 controller must still throttle.
	ctrl.decide(cl.Eng.Now(), 0, 0)
	if !ctrl.Engaged() || !victim.RateLimited() {
		t.Fatal("engage-class-0 controller ignored a class-0 prediction")
	}
	ctrl.Stop()
}

func TestControllerStopRemovesLimits(t *testing.T) {
	cl := core.NewCluster(lustre.PaperTopology(), lustre.Config{})
	victim := cl.FS.Client("c1")
	ctrl := mustNew(t, cl, victim, nil)
	ctrl.decide(cl.Eng.Now(), 0, 1)
	if !victim.RateLimited() {
		t.Fatal("engage did not limit victim")
	}
	ctrl.Stop()
	if victim.RateLimited() {
		t.Fatal("Stop left the limit in place")
	}
	if ctrl.Summary() == "" {
		t.Fatal("empty summary")
	}
}

// fcMaxModel is a deterministic forecast head for tests: over pooled rows
// (mean at 2j, max at 2j+1) it predicts class 1 when the max of feature 0
// (cli_reads on the busiest target) exceeds 2 in the newest pooled window.
type fcMaxModel struct{}

func (fcMaxModel) ProbsInto(dst []float64, vectors [][]float64) []float64 {
	if vectors[len(vectors)-1][1] > 2 {
		return append(dst[:0], 0.1, 0.9)
	}
	return append(dst[:0], 0.9, 0.1)
}
func (fcMaxModel) LossAndGrad([][]float64, int, float64) float64 { return 0 }
func (fcMaxModel) Params() []nn.Param                            { return nil }

// stubForecaster wires fcMaxModel as a single 2-window-ahead head with an
// identity scaler over the pooled width.
func stubForecaster(history int) *forecast.Forecaster {
	n := 2 * window.NumFeatures
	scaler := &dataset.Scaler{Mean: make([]float64, n), Std: make([]float64, n)}
	for i := range scaler.Std {
		scaler.Std[i] = 1
	}
	return &forecast.Forecaster{
		History:   history,
		Threshold: 1,
		Bins:      label.BinaryBins(),
		Heads:     []*forecast.Head{{Horizon: 2, Model: fcMaxModel{}, Scaler: scaler}},
	}
}

// TestControllerProactiveEngagesAheadOfClassifier drives windows that the
// current-window classifier calls clean (4 reads, under its >5 threshold)
// but the forecast head alarms on (max pooled reads > 2): the proactive
// controller must engage on the forecast alone, before any hot window
// exists, and log the forecast as the reason.
func TestControllerProactiveEngagesAheadOfClassifier(t *testing.T) {
	cl := core.NewCluster(lustre.PaperTopology(), lustre.Config{})
	victim := cl.FS.Client("c1")
	policy, err := NewProactiveThrottle(WithLead(4))
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(cl, stubFramework(), []Victim{{Client: victim}}, sim.Second,
		policy, WithForecaster(stubForecaster(2)))
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 2; w++ {
		for s := 0; s < 4; s++ {
			ctrl.Record(readRecord(w, s))
		}
	}
	cl.Eng.RunUntil(sim.Seconds(2.5))
	if !ctrl.Engaged() || !victim.RateLimited() {
		t.Fatalf("proactive controller not engaged on forecast alarm: %+v", ctrl.Actions())
	}
	var engaged *Action
	for i := range ctrl.Actions() {
		a := &ctrl.Actions()[i]
		if a.Switched && a.Engaged {
			engaged = a
			break
		}
	}
	if engaged == nil {
		t.Fatal("no engagement action logged")
	}
	if engaged.Class != 0 {
		t.Fatalf("engagement window classed %d — classifier fired first, forecast not the trigger", engaged.Class)
	}
	if engaged.Lead != 2 || !strings.Contains(engaged.Reason, "forecast") {
		t.Fatalf("engagement action %+v: want lead 2 and a forecast reason", engaged)
	}

	// A reactive controller over the identical stream must stay disengaged —
	// the proactive win is real lead time, not a lower threshold.
	clR := core.NewCluster(lustre.PaperTopology(), lustre.Config{})
	ctrlR := mustNew(t, clR, clR.FS.Client("c1"), nil)
	for w := 0; w < 2; w++ {
		for s := 0; s < 4; s++ {
			ctrlR.Record(readRecord(w, s))
		}
	}
	clR.Eng.RunUntil(sim.Seconds(2.5))
	if ctrlR.Engaged() {
		t.Fatal("reactive controller engaged on clean-classed windows")
	}
	ctrl.Stop()
	ctrlR.Stop()
}

// loopGen writes one file per iteration — a minimal interfering workload for
// defer tests.
type loopGen struct{}

func (loopGen) Name() string { return "bg-writes" }
func (loopGen) Ops(rank int) []workload.Op {
	path := fmt.Sprintf("/bg/rank%d", rank)
	return []workload.Op{
		{Kind: workload.Create, Path: path, StripeCount: 1},
		{Kind: workload.Write, Path: path, Size: 1 << 20},
		{Kind: workload.Close, Path: path},
	}
}
func (loopGen) Prepare(*lustre.FS) {}

// TestControllerDefersRunner exercises the defer actuation path end to end:
// hot windows pause the interfering runner at its next op boundary, clean
// windows resume it, and Stop always leaves it running free.
func TestControllerDefersRunner(t *testing.T) {
	cl := core.NewCluster(lustre.PaperTopology(), lustre.Config{})
	bg := &workload.Runner{
		FS: cl.FS, Name: "bg", Nodes: []string{"c2"}, Ranks: 1,
		Gen: loopGen{}, Loop: true,
	}
	policy, err := NewDeferBurst(WithReleaseAfter(2))
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(cl, stubFramework(), []Victim{{Runner: bg}}, sim.Second, policy)
	if err != nil {
		t.Fatal(err)
	}
	// Windows 0-1 hot, 2+ clean.
	for w := 0; w < 2; w++ {
		for s := 0; s < 10; s++ {
			ctrl.Record(readRecord(w, s))
		}
	}
	bg.Start()
	cl.Eng.RunUntil(sim.Seconds(2.5))
	if !ctrl.Engaged() || !bg.Paused() {
		t.Fatalf("engaged=%v paused=%v after hot windows, want both", ctrl.Engaged(), bg.Paused())
	}
	cl.Eng.RunUntil(sim.Seconds(4.5))
	if ctrl.Engaged() || bg.Paused() {
		t.Fatalf("engaged=%v paused=%v after two clean windows, want neither", ctrl.Engaged(), bg.Paused())
	}
	if !bg.Running() {
		t.Fatal("background runner died across defer/resume")
	}
	// Re-engage, then Stop mid-defer: the runner must come back.
	for s := 0; s < 10; s++ {
		ctrl.Record(readRecord(5, s))
	}
	cl.Eng.RunUntil(sim.Seconds(6.5))
	if !bg.Paused() {
		t.Fatal("controller did not re-defer on a fresh hot window")
	}
	ctrl.Stop()
	if bg.Paused() {
		t.Fatal("Stop left the runner paused")
	}
	bg.Stop()
	cl.Eng.RunUntil(sim.Seconds(8))
}
