package mitigate

import (
	"fmt"
	"strings"
	"testing"

	"quanterference/internal/core"
	"quanterference/internal/dataset"
	"quanterference/internal/forecast"
	"quanterference/internal/hw"
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

// newReactive attaches a reactive-throttle controller over the stub
// framework that throttles victim.
func newReactive(cl *core.Cluster, victim *lustre.Client) *Controller {
	return NewController(cl, stubFramework(), []Victim{{Client: victim}}, sim.Second, NewReactiveThrottle(), nil)
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
	cl := core.NewCluster(hw.PaperProfile())
	victim := cl.FS.Client("c1")
	ctrl := newReactive(cl, victim)
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
	cl := core.NewCluster(hw.PaperProfile())
	ctrl := newReactive(cl, cl.FS.Client("c1"))
	// Hot window 0, clean 1 and 2 (released), hot 3.
	for s := 0; s < 10; s++ {
		ctrl.Record(readRecord(0, s))
		ctrl.Record(readRecord(3, s))
	}
	cl.Eng.RunUntil(sim.Seconds(4.5))
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

// TestControllerStopRemovesLimits pins that Stop lifts an engaged throttle.
func TestControllerStopRemovesLimits(t *testing.T) {
	cl := core.NewCluster(hw.PaperProfile())
	victim := cl.FS.Client("c1")
	ctrl := newReactive(cl, victim)
	for s := 0; s < 10; s++ {
		ctrl.Record(readRecord(0, s))
	}
	cl.Eng.RunUntil(sim.Seconds(1.5))
	if !victim.RateLimited() {
		t.Fatal("engage did not limit victim")
	}
	ctrl.Stop()
	if victim.RateLimited() {
		t.Fatal("Stop left the limit in place")
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
	cl := core.NewCluster(hw.PaperProfile())
	victim := cl.FS.Client("c1")
	ctrl := NewController(cl, stubFramework(), []Victim{{Client: victim}}, sim.Second,
		NewProactiveThrottle(), stubForecaster(2))
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
	clR := core.NewCluster(hw.PaperProfile())
	ctrlR := newReactive(clR, clR.FS.Client("c1"))
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
	cl := core.NewCluster(hw.PaperProfile())
	bg := &workload.Runner{
		FS: cl.FS, Name: "bg", Nodes: []string{"c2"}, Ranks: 1,
		Gen: loopGen{}, Loop: true,
	}
	ctrl := NewController(cl, stubFramework(), []Victim{{Runner: bg}}, sim.Second, NewDeferBurst(), nil)
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

// hotModel predicts class 1 for every window.
type hotModel struct{ thresholdModel }

func (hotModel) ProbsInto(dst []float64, _ [][]float64) []float64 {
	return append(dst[:0], 0.1, 0.9)
}

// TestControllerStopAtWindowBoundary pins that Stop is final even when it
// lands on a window boundary: the window closing at that instant is already
// queued for emission when Stop runs, and it must not re-engage the
// throttle after Stop released it.
func TestControllerStopAtWindowBoundary(t *testing.T) {
	cl := core.NewCluster(hw.PaperProfile())
	victim := cl.FS.Client("c1")
	fw := stubFramework()
	fw.Model = hotModel{}
	ctrl := NewController(cl, fw, []Victim{{Client: victim}}, sim.Second, NewReactiveThrottle(), nil)
	// Scheduled at 1.5 s, the Stop runs at 2.0 s after the monitor's tick
	// for that instant has queued window 1's emission.
	cl.Eng.Schedule(sim.Seconds(1.5), func() { cl.Eng.Schedule(sim.Seconds(0.5), ctrl.Stop) })
	cl.Eng.RunUntil(sim.Seconds(5))
	if victim.RateLimited() || ctrl.Engaged() {
		t.Fatalf("stopped controller re-engaged: limited=%v engaged=%v, log %+v",
			victim.RateLimited(), ctrl.Engaged(), ctrl.Actions())
	}
	if acts := ctrl.Actions(); len(acts) != 1 || acts[0].Window != 0 {
		t.Fatalf("want only window 0 judged before Stop, got %+v", acts)
	}
}
