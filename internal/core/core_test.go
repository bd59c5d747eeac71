package core

import (
	"testing"

	"quanterference/internal/dataset"
	"quanterference/internal/hw"
	"quanterference/internal/label"
	"quanterference/internal/ml"
	"quanterference/internal/monitor/window"
	"quanterference/internal/sim"
	"quanterference/internal/workload"
	"quanterference/internal/workload/io500"
)

// Run, CollectDataset, and TrainFramework are panic-on-error shims for test
// brevity: every scenario below is valid by construction, so an error is a
// test bug and a panic points straight at it.
func Run(s Scenario, opts ...Option) *RunResult {
	res, err := RunE(s, opts...)
	if err != nil {
		panic(err)
	}
	return res
}

func CollectDataset(base Scenario, variants []Variant, cfg CollectorConfig) *dataset.Dataset {
	ds, err := CollectDatasetE(base, variants, cfg)
	if err != nil {
		panic(err)
	}
	return ds
}

func TrainFramework(ds *dataset.Dataset, cfg FrameworkConfig) (*Framework, *ml.Confusion) {
	fw, cm, err := TrainFrameworkE(ds, cfg)
	if err != nil {
		panic(err)
	}
	return fw, cm
}

// smallTarget is a quick ior-easy-write target spec. It writes well past
// the per-OST write-back limit so the disks, not the caches, set its pace.
func smallTarget() TargetSpec {
	return TargetSpec{
		Gen:   io500.New(io500.IorEasyWrite, io500.Params{Dir: "/tgt", Ranks: 2, EasyFileBytes: 64 << 20}),
		Nodes: []string{"c0"},
		Ranks: 2,
	}
}

func readInterference(dir string, ranks int) InterferenceSpec {
	return InterferenceSpec{
		Gen:   io500.New(io500.IorEasyRead, io500.Params{Dir: dir, Ranks: ranks, EasyFileBytes: 16 << 20}),
		Nodes: []string{"c1", "c2"},
		Ranks: ranks,
	}
}

// readInstances mimics the paper's setup of several concurrent interference
// instances: n instances of ior-easy-read with enough ranks to cover every
// OST.
func readInstances(n, ranksEach int) []InterferenceSpec {
	var out []InterferenceSpec
	for i := 0; i < n; i++ {
		out = append(out, InterferenceSpec{
			Gen: io500.New(io500.IorEasyRead, io500.Params{
				Dir: "/bginst" + string(rune('0'+i)), Ranks: ranksEach, EasyFileBytes: 16 << 20}),
			Nodes: []string{"c1", "c2", "c3", "c4"},
			Ranks: ranksEach,
		})
	}
	return out
}

func TestRunBaselineFinishes(t *testing.T) {
	res := Run(Scenario{Target: smallTarget()})
	if !res.Finished {
		t.Fatal("baseline did not finish")
	}
	if len(res.Records) == 0 {
		t.Fatal("no records")
	}
	if len(res.Windows) == 0 {
		t.Fatal("no windows")
	}
	for idx, mat := range res.Windows {
		if len(mat) != res.NTargets {
			t.Fatalf("window %d has %d targets", idx, len(mat))
		}
	}
}

func TestInterferenceSlowsTarget(t *testing.T) {
	base := Run(Scenario{Target: smallTarget()})
	contended := Run(Scenario{
		Target:       smallTarget(),
		Interference: readInstances(3, 6),
	})
	if !contended.Finished {
		t.Fatal("contended run did not finish")
	}
	slow := float64(contended.Duration) / float64(base.Duration)
	t.Logf("write target slowdown under 3 read instances: %.2fx", slow)
	if slow < 1.5 {
		t.Fatalf("interference too weak: base=%v contended=%v",
			sim.ToSeconds(base.Duration), sim.ToSeconds(contended.Duration))
	}
}

func TestRunRespectsMaxTime(t *testing.T) {
	big := TargetSpec{
		Gen:   io500.New(io500.IorEasyWrite, io500.Params{Dir: "/big", Ranks: 2, EasyFileBytes: 1 << 30}),
		Nodes: []string{"c0"},
		Ranks: 2,
	}
	res := Run(Scenario{Target: big, MaxTime: 3 * sim.Second})
	if res.Finished {
		t.Fatal("1 GiB x2 cannot finish in 3 s")
	}
	if res.Duration < 3*sim.Second || res.Duration > 5*sim.Second {
		t.Fatalf("duration %v", sim.ToSeconds(res.Duration))
	}
}

func TestRunDeterministic(t *testing.T) {
	a := Run(Scenario{Target: smallTarget(), Interference: []InterferenceSpec{readInterference("/bg", 2)}})
	b := Run(Scenario{Target: smallTarget(), Interference: []InterferenceSpec{readInterference("/bg", 2)}})
	if a.Duration != b.Duration || len(a.Records) != len(b.Records) {
		t.Fatalf("replay diverged: %v/%d vs %v/%d",
			a.Duration, len(a.Records), b.Duration, len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i].End != b.Records[i].End {
			t.Fatalf("record %d diverged", i)
		}
	}
}

func TestCollectDatasetShapesAndLabels(t *testing.T) {
	base := Scenario{Target: smallTarget()}
	variants := []Variant{
		{Name: "none-light", Interference: []InterferenceSpec{readInterference("/bgA", 1)}},
		{Name: "read-heavy", Interference: []InterferenceSpec{readInterference("/bgB", 6)}},
	}
	ds := CollectDataset(base, variants, CollectorConfig{IncludeBaseline: true})
	if ds.Len() == 0 {
		t.Fatal("empty dataset")
	}
	if ds.Classes != 2 || ds.NTargets != 7 {
		t.Fatalf("schema %d classes %d targets", ds.Classes, ds.NTargets)
	}
	if len(ds.FeatureNames) != window.NumFeatures {
		t.Fatalf("features=%d", len(ds.FeatureNames))
	}
	// Baseline windows must be label 0 with degradation ~1.
	saw0, saw1 := false, false
	for _, s := range ds.Samples {
		if s.Run == "baseline" {
			if s.Label != 0 || s.Degradation < 0.99 || s.Degradation > 1.01 {
				t.Fatalf("baseline sample deg=%f label=%d", s.Degradation, s.Label)
			}
		}
		if s.Label == 0 {
			saw0 = true
		}
		if s.Label == 1 {
			saw1 = true
		}
	}
	if !saw0 || !saw1 {
		t.Fatalf("dataset lacks class diversity: %v", ds.ClassCounts())
	}
}

func TestTrainFrameworkOnCollectedData(t *testing.T) {
	// A longer-running target so each run yields several windows.
	base := Scenario{Target: TargetSpec{
		Gen: io500.New(io500.IorEasyWrite, io500.Params{
			Dir: "/tgt", Ranks: 2, EasyFileBytes: 48 << 20}),
		Nodes: []string{"c0"},
		Ranks: 2,
	}}
	var variants []Variant
	// Metadata-only interference leaves a data writer untouched (class 0);
	// read instances of growing intensity produce class 1.
	for i := 0; i < 2; i++ {
		variants = append(variants, Variant{
			Name: "mdt" + string(rune('0'+i)),
			Interference: []InterferenceSpec{{
				Gen: io500.New(io500.MdtEasyWrite, io500.Params{
					Dir: "/mdtbg" + string(rune('0'+i)), Ranks: 2, MdtFiles: 200}),
				Nodes: []string{"c5", "c6"}, Ranks: 2,
			}},
		})
	}
	for i, instances := range []int{1, 2, 3} {
		variants = append(variants, Variant{
			Name:         "read" + string(rune('a'+i)),
			Interference: readInstances(instances, 6),
		})
	}
	ds := CollectDataset(base, variants, CollectorConfig{IncludeBaseline: true})
	counts := ds.ClassCounts()
	if counts[0] < 3 || counts[1] < 3 {
		t.Fatalf("not enough samples per class: %v (n=%d)", counts, ds.Len())
	}
	fw, cm := TrainFramework(ds, FrameworkConfig{Seed: 1, Train: TrainConfigQuick()})
	t.Logf("class counts %v; test confusion:\n%s", counts,
		cm.Render([]string{"<2x", ">=2x"}))
	if acc := cm.Accuracy(); acc < 0.6 {
		t.Fatalf("accuracy %.3f on tiny dataset", acc)
	}
	// Online prediction path: predict on one raw window.
	for _, s := range ds.Samples {
		class, probs := fw.Predict(s.Vectors)
		if class < 0 || class > 1 || len(probs) != 2 {
			t.Fatalf("bad prediction %d %v", class, probs)
		}
		break
	}
}

// TrainConfigQuick keeps unit tests fast.
func TrainConfigQuick() ml.TrainConfig {
	return ml.TrainConfig{Epochs: 25}
}

func TestLiveMonitorEmitsWindows(t *testing.T) {
	cl := NewCluster(hw.PaperProfile())
	var got []int
	lm := AttachLive(cl, sim.Second, func(idx int, mat window.Matrix) {
		got = append(got, idx)
		if len(mat) != cl.FS.NumTargets() {
			t.Fatalf("window %d bad shape", idx)
		}
	})
	g := io500.New(io500.IorEasyWrite, io500.Params{Dir: "/live", Ranks: 1, EasyFileBytes: 4 << 20})
	r := &workload.Runner{FS: cl.FS, Name: "live", Nodes: []string{"c0"}, Ranks: 1,
		Gen: g, OnRecord: lm.Record}
	r.Start()
	cl.Eng.RunUntil(sim.Seconds(3.5))
	lm.Stop()
	if len(got) != 3 {
		t.Fatalf("emitted windows %v, want 3", got)
	}
	for i, idx := range got {
		if idx != i {
			t.Fatalf("window order %v", got)
		}
	}
}

func TestBinsPlumbing(t *testing.T) {
	// Multi-class collection uses SeverityBins end to end.
	base := Scenario{Target: smallTarget()}
	ds := CollectDataset(base, []Variant{
		{Interference: []InterferenceSpec{readInterference("/bgx", 6)}},
	}, CollectorConfig{Bins: label.SeverityBins(), IncludeBaseline: true})
	if ds.Classes != 3 {
		t.Fatalf("classes=%d", ds.Classes)
	}
}

func TestFrameworkSaveLoadPredictIdentical(t *testing.T) {
	base := Scenario{Target: smallTarget()}
	ds := CollectDataset(base, []Variant{
		{Interference: readInstances(2, 6)},
	}, CollectorConfig{IncludeBaseline: true})
	fw, _ := TrainFramework(ds, FrameworkConfig{Seed: 3, Train: TrainConfigQuick()})
	path := t.TempDir() + "/fw.json"
	if err := fw.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFramework(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ds.Samples {
		wc, wp := fw.Predict(s.Vectors)
		gc, gp := got.Predict(s.Vectors)
		if wc != gc {
			t.Fatalf("class differs after reload: %d vs %d", wc, gc)
		}
		for i := range wp {
			if wp[i] != gp[i] {
				t.Fatalf("probs differ after reload")
			}
		}
	}
	if got.Bins.Classes() != fw.Bins.Classes() {
		t.Fatal("bins lost")
	}
}

func TestOSTSkewRotatesPlacement(t *testing.T) {
	placement := func(skew int) int {
		res := Run(Scenario{Target: TargetSpec{
			Gen:   io500.New(io500.IorEasyWrite, io500.Params{Dir: "/skew", Ranks: 1, EasyFileBytes: 4 << 20}),
			Nodes: []string{"c0"},
			Ranks: 1,
		}, OSTSkew: skew})
		// The target's first data record reveals the OST.
		for _, rec := range res.Records {
			if rec.Op.Kind == workload.Write {
				return rec.Targets[0]
			}
		}
		t.Fatal("no write records")
		return -1
	}
	a, b := placement(0), placement(3)
	if a == b {
		t.Fatalf("skew did not move the target: ost%d both times", a)
	}
}

func TestLiveMonitorMultiSecondWindows(t *testing.T) {
	// Regression guard for event ordering: with windows larger than the
	// 1 Hz sampling period, the emission must still observe the server
	// monitor's finalized window (not a zero-filled placeholder).
	cl := NewCluster(hw.PaperProfile())
	sawServerActivity := false
	lm := AttachLive(cl, 2*sim.Second, func(idx int, mat window.Matrix) {
		for _, vec := range mat {
			for _, x := range vec[10:] { // server half of the vector
				if x != 0 {
					sawServerActivity = true
				}
			}
		}
	})
	g := io500.New(io500.IorEasyWrite, io500.Params{Dir: "/lw", Ranks: 2, EasyFileBytes: 64 << 20})
	r := &workload.Runner{FS: cl.FS, Name: "lw", Nodes: []string{"c0"}, Ranks: 2,
		Gen: g, OnRecord: lm.Record}
	r.Start()
	cl.Eng.RunUntil(sim.Seconds(4) + sim.Millisecond)
	lm.Stop()
	if !sawServerActivity {
		t.Fatal("multi-second windows observed no finalized server metrics")
	}
}
