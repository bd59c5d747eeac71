package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"quanterference/internal/dataset"
	"quanterference/internal/fault"
	"quanterference/internal/label"
	"quanterference/internal/ml"
	"quanterference/internal/obs"
	"quanterference/internal/sim"
	"quanterference/internal/workload/io500"
)

// TestRunEInvalidScenario walks every rejection branch of validate() plus
// the injection-time fault target check, asserting both the sentinel and a
// distinctive fragment of the message — each branch must stay diagnosable.
func TestRunEInvalidScenario(t *testing.T) {
	cases := []struct {
		name    string
		s       Scenario
		want    error
		wantSub string
	}{
		{"empty", Scenario{}, ErrInvalidScenario, "target needs Gen"},
		{"no-ranks", Scenario{Target: TargetSpec{
			Gen: smallTarget().Gen, Nodes: []string{"c0"}}}, ErrInvalidScenario, "Ranks > 0"},
		{"unknown-node", Scenario{Target: TargetSpec{
			Gen: smallTarget().Gen, Nodes: []string{"nope"}, Ranks: 1}},
			ErrInvalidScenario, "not a topology client"},
		{"window-not-second-aligned", func() Scenario {
			s := Scenario{Target: smallTarget()}
			s.WindowSize = sim.Millisecond
			return s
		}(), ErrInvalidScenario, "whole multiple of one second"},
		{"negative-window", func() Scenario {
			s := Scenario{Target: smallTarget()}
			s.WindowSize = -sim.Second
			return s
		}(), ErrInvalidScenario, "non-positive window size"},
		{"negative-maxtime", Scenario{Target: smallTarget(), MaxTime: -1},
			ErrInvalidScenario, "non-positive MaxTime"},
		{"negative-skew", Scenario{Target: smallTarget(), OSTSkew: -2},
			ErrInvalidScenario, "negative OSTSkew"},
		{"bad-interference", Scenario{Target: smallTarget(),
			Interference: []InterferenceSpec{{}}}, ErrInvalidScenario, "interference 0 needs"},
		{"interference-negative-start", Scenario{Target: smallTarget(),
			Interference: []InterferenceSpec{{
				Gen: smallTarget().Gen, Nodes: []string{"c1"}, Ranks: 1, StartAt: -sim.Second,
			}}}, ErrInvalidScenario, "negative StartAt"},
		{"interference-unknown-node", Scenario{Target: smallTarget(),
			Interference: []InterferenceSpec{{
				Gen: smallTarget().Gen, Nodes: []string{"ghost"}, Ranks: 1,
			}}}, ErrInvalidScenario, "not a topology client"},
		{"bad-fault-spec", Scenario{Target: smallTarget(),
			Faults: []fault.Spec{{Kind: fault.DiskSlow, Duration: sim.Second, Severity: 2}}},
			ErrInvalidScenario, "fault 0"},
		{"fault-unknown-target", Scenario{Target: smallTarget(),
			Faults: []fault.Spec{{Kind: fault.DiskSlow, Target: "ost99",
				Duration: sim.Second, Severity: 2}}},
			ErrInvalidScenario, `disk-slow target "ost99"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunE(tc.s)
			if res != nil || !errors.Is(err, tc.want) {
				t.Fatalf("RunE = %v, %v; want nil, %v", res, err, tc.want)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q missing %q", err, tc.wantSub)
			}
		})
	}
}

// TestRunEStatsAlwaysPopulated covers the acceptance criterion that every
// run reports observability stats, with or without an explicit sink.
func TestRunEStatsAlwaysPopulated(t *testing.T) {
	res, err := RunE(Scenario{Target: smallTarget()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Empty() {
		t.Fatal("RunResult.Stats empty without WithSink")
	}
	// Every instrumented layer must have produced activity for a data write.
	for _, c := range []struct {
		component, name string
	}{
		{"engine", "events_executed"},
		{"disk", "requests"},
		{"blockqueue", "submits"},
		{"netsim", "flows"},
		{"ost", "writes_admitted"},
		{"mds", "journal_ops"},
	} {
		if v := res.Stats.CounterTotal(c.component, c.name); v == 0 {
			t.Errorf("%s/%s = 0, want > 0", c.component, c.name)
		}
	}
	// A pure write workload triggers no readahead, but the client metrics
	// must still be registered.
	if _, ok := res.Stats.Counter("client", "c0", "ra_misses"); !ok {
		t.Error("client/c0/ra_misses not registered")
	}
	if len(res.Stats.Histograms) == 0 {
		t.Error("no histograms in stats")
	}
}

func TestRunEWithSinkAggregates(t *testing.T) {
	sink := obs.New()
	first, err := RunE(Scenario{Target: smallTarget()}, WithSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunE(Scenario{Target: smallTarget()}, WithSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	a := first.Stats.CounterTotal("engine", "events_executed")
	b := second.Stats.CounterTotal("engine", "events_executed")
	// Identical deterministic runs on one shared sink: the second snapshot
	// holds both runs' events.
	if b != 2*a {
		t.Fatalf("shared sink: second snapshot %d events, first %d (want exactly double)", b, a)
	}
}

// TestCollectWithoutSinkIsUninstrumented pins the uninstrumented collection
// path: the run function a collection without WithSink uses registers no
// metric and snapshots nothing, simulates exactly what an instrumented RunE
// does, and the collection's dataset is identical to the same collection
// on a sink.
func TestCollectWithoutSinkIsUninstrumented(t *testing.T) {
	base := Scenario{Target: smallTarget()}
	variants := []Variant{{Interference: readInstances(2, 6)}}
	sink := obs.New()
	traced, err := CollectDatasetE(base, variants, CollectorConfig{IncludeBaseline: true}, WithSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	if sink.Snapshot().CounterTotal("engine", "events_executed") == 0 {
		t.Fatal("a collection WithSink left its sink empty")
	}
	plain, err := CollectDatasetE(base, variants, CollectorConfig{IncludeBaseline: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := plain.Digest(), traced.Digest(); got != want {
		t.Fatalf("uninstrumented collection digest %s, instrumented %s", got, want)
	}

	bare, err := simulate(context.Background(), base, &options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bare.Stats.Empty() {
		t.Fatalf("uninstrumented run registered metrics: %d counters, %d gauges, %d histograms",
			len(bare.Stats.Counters), len(bare.Stats.Gauges), len(bare.Stats.Histograms))
	}
	inst, err := RunE(base)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Duration != inst.Duration || !reflect.DeepEqual(bare.Records, inst.Records) ||
		!reflect.DeepEqual(bare.Windows, inst.Windows) {
		t.Fatal("the uninstrumented run simulated differently from RunE")
	}
}

// TestTraceCoversAllLayers encodes the acceptance criterion that a traced
// run exports Chrome trace events from the disk, blockqueue, netsim, and
// lustre (ost + mds) layers.
func TestTraceCoversAllLayers(t *testing.T) {
	sink := obs.New()
	sink.EnableTrace(0)
	if _, err := RunE(Scenario{Target: smallTarget()}, WithSink(sink)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sink.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Cat string `json:"cat"`
			Ph  string `json:"ph"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if file.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", file.DisplayTimeUnit)
	}
	cats := map[string]int{}
	for _, ev := range file.TraceEvents {
		if ev.Ph == "X" {
			cats[ev.Cat]++
		}
	}
	for _, want := range []string{"disk", "blockqueue", "netsim", "ost", "mds"} {
		if cats[want] == 0 {
			t.Errorf("no %q trace events; got %v", want, cats)
		}
	}
}

func TestCollectDatasetEBaselineUnfinished(t *testing.T) {
	big := TargetSpec{
		Gen:   io500.New(io500.IorEasyWrite, io500.Params{Dir: "/big", Ranks: 2, EasyFileBytes: 1 << 30}),
		Nodes: []string{"c0"},
		Ranks: 2,
	}
	ds, err := CollectDatasetE(Scenario{Target: big, MaxTime: 3 * sim.Second}, nil, CollectorConfig{})
	if ds != nil || !errors.Is(err, ErrBaselineUnfinished) {
		t.Fatalf("CollectDatasetE = %v, %v; want nil, ErrBaselineUnfinished", ds, err)
	}
	if !strings.Contains(err.Error(), "MaxTime") {
		t.Errorf("error %q does not mention MaxTime", err)
	}
}

func TestCollectDatasetEInvalidScenario(t *testing.T) {
	ds, err := CollectDatasetE(Scenario{}, nil, CollectorConfig{})
	if ds != nil || !errors.Is(err, ErrInvalidScenario) {
		t.Fatalf("CollectDatasetE = %v, %v; want ErrInvalidScenario", ds, err)
	}
}

// TestCollectDatasetEOptions checks the collector config and the report
// option together: severity bins label three classes, IncludeBaseline adds
// the baseline's windows, and the report counts both origins.
func TestCollectDatasetEOptions(t *testing.T) {
	base := Scenario{Target: smallTarget()}
	variants := []Variant{{Interference: []InterferenceSpec{readInterference("/bgo", 6)}}}
	var report CollectReport
	ds, err := CollectDatasetE(base, variants,
		CollectorConfig{Bins: label.SeverityBins(), IncludeBaseline: true}, WithCollectReport(&report))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Classes != 3 {
		t.Fatalf("SeverityBins gave %d classes, want 3", ds.Classes)
	}
	baseline := 0
	for _, s := range ds.Samples {
		if s.Run == "baseline" {
			baseline++
		}
	}
	if baseline == 0 {
		t.Fatal("IncludeBaseline produced no baseline samples")
	}
	if report.Completed != 1 || report.BaselineSamples != baseline ||
		report.BaselineSamples+report.VariantSamples != ds.Len() {
		t.Fatalf("report %+v does not account for %d samples (%d baseline)", report, ds.Len(), baseline)
	}
}

func TestTrainFrameworkEErrors(t *testing.T) {
	if _, _, err := TrainFrameworkE(nil, FrameworkConfig{}); !errors.Is(err, ErrEmptyDataset) {
		t.Fatalf("nil dataset: err = %v, want ErrEmptyDataset", err)
	}
	base := Scenario{Target: smallTarget()}
	ds, err := CollectDatasetE(base, []Variant{
		{Interference: readInstances(2, 6)},
	}, CollectorConfig{IncludeBaseline: true})
	if err != nil {
		t.Fatal(err)
	}
	fw, cm, err := TrainFrameworkE(ds, FrameworkConfig{Seed: 3, Train: TrainConfigQuick()})
	if err != nil || fw == nil || cm == nil {
		t.Fatalf("valid training failed: %v", err)
	}
}

// noScalerFramework is a framework file with a valid header and model but
// no scaler, which Predict would index out of range.
func noScalerFramework(t testing.TB) string {
	spec, err := ml.Snapshot(ml.NewKernelModel(ml.KernelConfig{NTargets: 3, NFeat: 5, Classes: 2}))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(frameworkSpec{Format: FrameworkFormat, Version: FrameworkFormatVersion, Model: spec})
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func TestLoadFrameworkRejectsBadFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := dir + "/" + name
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []struct {
		name, content, wantSub string
	}{
		{"garbage.json", "not json at all", ""},
		{"unrelated.json", `{"weights": [1, 2, 3]}`, "format"},
		{"future.json", `{"format": "quanterference.framework", "version": 99}`, "version 99"},
		{"preversion.json", `{"format": "quanterference.framework", "model": {}}`, "version 0"},
		// Header-valid files that used to panic the loader.
		{"nomodel.json", `{"format": "quanterference.framework", "version": 1}`, "model"},
		{"zerotargets.json", `{"format": "quanterference.framework", "version": 1, "model": ` +
			`{"kind": "kernel", "n_targets": 0, "n_feat": 5, "classes": 2}}`, "out of bounds"},
		{"hugedims.json", `{"format": "quanterference.framework", "version": 1, "model": ` +
			`{"kind": "flat", "n_targets": 1000, "n_feat": 1000, "classes": 2}}`, "out of bounds"},
		{"badweights.json", `{"format": "quanterference.framework", "version": 1, "model": ` +
			`{"kind": "kernel", "n_targets": 3, "n_feat": 5, "classes": 2, "weights": [[1]]}}`, ""},
		{"noscaler.json", noScalerFramework(t), "scaler"},
		// Files that loaded but then panicked every /v1/predict: bins that
		// do not name the model's classes (see rebinned).
		{"nothresholds.json", rebinned(t, label.BinaryBins(), []float64{}), "thresholds"},
		{"nullthresholds.json", rebinned(t, label.BinaryBins(), nil), "thresholds"},
		{"extrathreshold.json", rebinned(t, label.BinaryBins(), []float64{2, 5}), "thresholds"},
		{"missingthreshold.json", rebinned(t, label.SeverityBins(), []float64{2}), "thresholds"},
		{"descending.json", rebinned(t, label.SeverityBins(), []float64{5, 2}), "ascending"},
		{"repeated.json", rebinned(t, label.SeverityBins(), []float64{2, 2}), "ascending"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadFramework(write(tc.name, tc.content))
			if !errors.Is(err, ErrBadFrameworkFile) {
				t.Fatalf("err = %v, want ErrBadFrameworkFile", err)
			}
			if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q missing %q", err, tc.wantSub)
			}
		})
	}
	if _, err := LoadFramework(dir + "/missing.json"); errors.Is(err, ErrBadFrameworkFile) {
		t.Error("missing file should surface the os error, not ErrBadFrameworkFile")
	}
}

func TestSavedFrameworkCarriesVersionHeader(t *testing.T) {
	base := Scenario{Target: smallTarget()}
	ds, err := CollectDatasetE(base, []Variant{
		{Interference: readInstances(2, 6)},
	}, CollectorConfig{IncludeBaseline: true})
	if err != nil {
		t.Fatal(err)
	}
	fw, _, err := TrainFrameworkE(ds, FrameworkConfig{Seed: 3, Train: TrainConfigQuick()})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/fw.json"
	if err := fw.Save(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var head struct {
		Format  string `json:"format"`
		Version int    `json:"version"`
	}
	if err := json.Unmarshal(raw, &head); err != nil {
		t.Fatal(err)
	}
	if head.Format != FrameworkFormat || head.Version != FrameworkFormatVersion {
		t.Fatalf("header = %q v%d, want %q v%d",
			head.Format, head.Version, FrameworkFormat, FrameworkFormatVersion)
	}
	if _, err := LoadFramework(path); err != nil {
		t.Fatalf("round-trip load: %v", err)
	}
}

// threeClassDS builds a 90-sample, 3-class dataset: three runs of 30
// consecutive windows whose labels step 0, 1, 2 through each run, with
// features that track the label.
func threeClassDS() *dataset.Dataset {
	ds := dataset.New([]string{"f0", "f1", "f2"}, 2, 3)
	rng := sim.NewRNG(5)
	for r := 0; r < 3; r++ {
		for w := 0; w < 30; w++ {
			lbl := w / 10
			vecs := make([][]float64, 2)
			for t := range vecs {
				vecs[t] = []float64{float64(lbl) + rng.Float64(), rng.Float64(), rng.Float64()}
			}
			ds.Add(&dataset.Sample{
				Workload: "ior", Run: string(rune('a' + r)), Window: w,
				Degradation: []float64{1.2, 2.5, 6}[lbl], Label: lbl, Vectors: vecs,
			})
		}
	}
	return ds
}

// TestTrainFrameworkRejectsBinsMismatch pins that training refuses bins
// that cannot name every class the dataset's labels use: the default binary
// bins over a 3-class dataset would yield a model whose class 2 Bins.Name
// cannot render and whose saved file LoadFramework refuses.
func TestTrainFrameworkRejectsBinsMismatch(t *testing.T) {
	ds := threeClassDS()
	cfg := FrameworkConfig{Seed: 1, Train: ml.TrainConfig{Epochs: 3}}
	if _, _, err := TrainFrameworkE(ds, cfg); !errors.Is(err, ErrBinsMismatch) {
		t.Fatalf("binary bins over 3 classes: err = %v, want ErrBinsMismatch", err)
	}
	cfg.Bins = label.SeverityBins()
	if _, _, err := TrainFrameworkE(ds, cfg); err != nil {
		t.Fatalf("severity bins over 3 classes: %v", err)
	}
}
