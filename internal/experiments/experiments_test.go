package experiments

import (
	"strings"
	"testing"

	"quanterference/internal/label"
	"quanterference/internal/sim"
	"quanterference/internal/workload/apps"
)

// Small scale keeps the suite fast while preserving every mechanism.
const testScale = Scale(0.25)

func TestTableIShape(t *testing.T) {
	r := TableI(TableIConfig{Scale: testScale, Instances: 2, RanksPerInstance: 4, TargetRanks: 2})
	if len(r.Tasks) != 7 || len(r.Slowdown) != 7 {
		t.Fatalf("matrix shape %dx%d", len(r.Tasks), len(r.Slowdown))
	}
	idx := func(name string) int {
		for i, t := range r.Tasks {
			if t == name {
				return i
			}
		}
		return -1
	}
	er, ew, hw, mew := idx("ior-easy-read"), idx("ior-easy-write"), idx("ior-hard-write"), idx("mdt-easy-write")
	// Read-vs-read contention: the diagonal read cell must dominate mdt
	// interference on the same row (the paper's first key insight).
	if r.Slowdown[er][er] < 1.5 {
		t.Errorf("read-vs-read slowdown %.2f, want >1.5", r.Slowdown[er][er])
	}
	if r.Slowdown[er][er] <= r.Slowdown[er][mew] {
		t.Errorf("read row: read interference (%.2f) should exceed mdt-easy (%.2f)",
			r.Slowdown[er][er], r.Slowdown[er][mew])
	}
	// Writes suffer under write interference.
	if r.Slowdown[ew][hw] < 1.5 && r.Slowdown[ew][ew] < 1.5 {
		t.Errorf("write-vs-write too weak: %v", r.Slowdown[ew])
	}
	// mdt-easy-write interference barely affects data tasks (paper col 6).
	if r.Slowdown[er][mew] > 1.5 {
		t.Errorf("mdt-easy should not hurt reads: %.2f", r.Slowdown[er][mew])
	}
	// Renders carry all tasks.
	out := r.Table().Render()
	for _, task := range r.Tasks {
		if !strings.Contains(out, task) {
			t.Fatalf("render missing %s", task)
		}
	}
	if !strings.Contains(r.Table().CSV(), "standalone_s") {
		t.Fatal("csv missing header")
	}
	if _, _, v := r.MaxCell(); v <= 1 {
		t.Fatalf("max cell %.2f", v)
	}
}

// Figure 1 runs at full scale: the Enzo runs are cheap and the
// metadata-vs-data contrast needs realistic op volumes.
func fig1Cfg() Figure1Config {
	return Figure1Config{Scale: 1, Cycles: 5, Ranks: 2}
}

func TestFigure1aGradedImpact(t *testing.T) {
	r := Figure1a(fig1Cfg())
	if len(r.Labels) != 4 || len(r.Times) != 4 {
		t.Fatalf("labels %v", r.Labels)
	}
	base, one, three := r.MeanLatency(0), r.MeanLatency(1), r.MeanLatency(3)
	t.Logf("mean latency: base=%.3f 1x=%.3f 3x=%.3f ms", base, one, three)
	if one <= base {
		t.Fatal("1x interference should slow ops")
	}
	if three <= one {
		t.Fatal("3x interference should slow ops more than 1x")
	}
	// Mixed op kinds present (Figure 1's premise).
	kinds := map[string]bool{}
	for _, k := range r.Kinds {
		kinds[k] = true
	}
	for _, want := range []string{"read", "write", "open", "close", "stat"} {
		if !kinds[want] {
			t.Fatalf("baseline window missing %s ops: %v", want, kinds)
		}
	}
	if !strings.Contains(r.Table().CSV(), "baseline_ms") {
		t.Fatal("csv missing series")
	}
}

func TestFigure1bTypeDependentImpact(t *testing.T) {
	// Smooth=1 keeps per-op latencies raw: smoothing blends the data-op
	// spikes into neighbouring metadata ops and hides the contrast.
	cfg := fig1Cfg()
	cfg.Smooth = 1
	r := Figure1b(cfg)
	if len(r.Labels) != 3 {
		t.Fatalf("labels %v", r.Labels)
	}
	// Both interference types must slow something, and there must exist
	// ops hit harder by the metadata workload than the data workload
	// (the paper's arrows).
	data, meta := r.Times[1], r.Times[2]
	base := r.Times[0]
	metaWins := 0
	for i := range base {
		if base[i] <= 0 {
			continue
		}
		if meta[i] > data[i] && meta[i] > 1.5*base[i] {
			metaWins++
		}
	}
	if metaWins == 0 {
		t.Fatal("no ops more affected by metadata-intensive interference")
	}
	t.Logf("%d ops hit harder by mdt-easy than ior-easy-write", metaWins)
}

func TestTableIIMetrics(t *testing.T) {
	r := TableII(testScale)
	if len(r.Names) != len(r.Groups) {
		t.Fatal("groups misaligned")
	}
	if len(r.Values) != 7 {
		t.Fatalf("targets %d", len(r.Values))
	}
	nonzero := 0
	for _, row := range r.Values {
		for _, v := range row {
			if v != 0 {
				nonzero++
			}
		}
	}
	if nonzero == 0 {
		t.Fatal("no live metric values captured")
	}
	out := r.Table().Render()
	for _, section := range []string{"I/O speed", "Device metrics", "Read/Write queue"} {
		if !strings.Contains(out, section) {
			t.Fatalf("render missing section %q", section)
		}
	}
}

func TestIO500DatasetAndBinaryModel(t *testing.T) {
	cfg := DatasetConfig{Scale: 0.5, Seed: 1}
	ds := IO500Dataset(cfg)
	t.Logf("IO500 dataset: %d samples, balance %v", ds.Len(), ds.ClassCounts())
	counts := ds.ClassCounts()
	if counts[0] < 10 || counts[1] < 10 {
		t.Fatalf("class starvation: %v", counts)
	}
	ev := TrainEval("io500", ds, cfg.Bins, 60, 1)
	t.Logf("\n%s", ev.Table().Render())
	// The paper's claim for the IO500 binary model (Figure 3(a)): F1 above
	// 0.90. Here it reads 0.945 (5 errors in 91 held-out windows).
	if f1 := ev.Confusion.MacroF1(); !(f1 > 0.90) {
		t.Fatalf("macro-F1 %.3f, paper claims > 0.90 (accuracy %.3f)", f1, ev.Confusion.Accuracy())
	}
	// Figure 4 path: rebin to 3 classes without re-simulating.
	ev4 := Figure4From(ds, cfg, 40)
	if len(ev4.ClassNames) != 3 {
		t.Fatalf("rebin classes %v", ev4.ClassNames)
	}
	if ev4.Samples != ds.Len() {
		t.Fatal("rebin lost samples")
	}
}

func TestDLIODatasetNegativeHeavy(t *testing.T) {
	cfg := DatasetConfig{Scale: testScale, Seed: 4}
	ds := DLIODataset(cfg)
	counts := ds.ClassCounts()
	t.Logf("DLIO dataset: %d samples, balance %v", ds.Len(), counts)
	if ds.Len() < 20 {
		t.Fatalf("dataset too small: %d", ds.Len())
	}
	// The paper's DLIO dataset skews negative (compute gaps dilute
	// interference exposure): 14,724 negative vs 3,702 positive.
	if counts[0] <= counts[1] {
		t.Errorf("DLIO balance should skew negative: %v", counts)
	}
}

func TestAppDatasetsAndOpenPMDSmall(t *testing.T) {
	cfg := DatasetConfig{Scale: testScale, Seed: 5}
	enzo := AppDataset(apps.Enzo, cfg)
	pmd := AppDataset(apps.OpenPMD, cfg)
	t.Logf("enzo n=%d %v; openpmd n=%d %v", enzo.Len(), enzo.ClassCounts(), pmd.Len(), pmd.ClassCounts())
	if enzo.Len() == 0 || pmd.Len() == 0 {
		t.Fatal("empty app dataset")
	}
	// The paper attributes OpenPMD's weaker model to its small sample
	// count; our collection reproduces that imbalance.
	if pmd.Len() >= enzo.Len() {
		t.Fatalf("openpmd (%d) should have fewer samples than enzo (%d)", pmd.Len(), enzo.Len())
	}
}

func TestAblationsRun(t *testing.T) {
	cfg := DatasetConfig{Scale: testScale, Seed: 6}
	ds := IO500Dataset(cfg)
	arch := AblationArchitecture(ds, cfg, 25)
	if len(arch.Evals) != 2 {
		t.Fatalf("arch evals %d", len(arch.Evals))
	}
	feats := AblationFeatures(ds, cfg, 25)
	if len(feats.Evals) != 3 {
		t.Fatalf("feature evals %d", len(feats.Evals))
	}
	t.Logf("\n%s", feats.Table().CSV())
	// Feature widths must actually differ.
	if !strings.Contains(feats.Table().Render(), "client-side only") {
		t.Fatal("render missing config")
	}
	for _, r := range []*AblationResult{arch, feats} {
		if !strings.Contains(r.Table().CSV(), "accuracy") {
			t.Fatal("csv header missing")
		}
	}
}

func TestAblationWindowSweep(t *testing.T) {
	cfg := DatasetConfig{Scale: 0.1, Seed: 7}
	r := AblationWindow(cfg, 15, []sim.Time{sim.Second, 2 * sim.Second})
	if len(r.Evals) != 2 {
		t.Fatalf("window evals %d", len(r.Evals))
	}
}

func TestInterferenceSweepIsolation(t *testing.T) {
	sweep := InterferenceSweep(testScale)
	if len(sweep) < 6 {
		t.Fatalf("sweep size %d", len(sweep))
	}
	seen := map[string]bool{}
	for _, v := range sweep {
		if seen[v.Name] {
			t.Fatalf("duplicate variant %s", v.Name)
		}
		seen[v.Name] = true
		if len(v.Interference) == 0 {
			t.Fatalf("variant %s empty", v.Name)
		}
	}
}

func TestTrainEvalDefaultsBins(t *testing.T) {
	cfg := DatasetConfig{Scale: 0.1, Seed: 8}
	ds := IO500Dataset(cfg)
	ev := TrainEval("defaults", ds, label.Bins{}, 10, 8)
	if len(ev.ClassNames) != 2 {
		t.Fatalf("default bins gave %v", ev.ClassNames)
	}
}

func TestExtensionArchitectures(t *testing.T) {
	cfg := DatasetConfig{Scale: 0.25, Seed: 9}
	ds := IO500Dataset(cfg)
	r := ExtensionArchitectures(ds, cfg, 25)
	if len(r.Evals) != 3 {
		t.Fatalf("evals=%d", len(r.Evals))
	}
	for _, e := range r.Evals {
		if e.Confusion.Total() == 0 {
			t.Fatalf("%s produced no predictions", e.Name)
		}
	}
	if !strings.Contains(r.Table().Render(), "self-attention") {
		t.Fatal("render missing attention row")
	}
}

func TestExtensionRegression(t *testing.T) {
	cfg := DatasetConfig{Scale: 0.25, Seed: 10}
	ds := IO500Dataset(cfg)
	r := ExtensionRegression(ds, cfg, 40)
	t.Logf("regressor MAE=%.3f doublings, binned acc=%.3f vs classifier %.3f",
		r.MAELog2, r.BinnedEval.Confusion.Accuracy(), r.ClassifierEval.Confusion.Accuracy())
	if r.MAELog2 <= 0 {
		t.Fatal("MAE not computed")
	}
	if r.BinnedEval.Confusion.Total() != r.ClassifierEval.Confusion.Total() {
		t.Fatal("regressor and classifier evaluated on different test sets")
	}
	if !strings.Contains(r.Table().CSV(), "regressor_binned") {
		t.Fatal("csv missing rows")
	}
}

func TestRobustnessAcrossSeeds(t *testing.T) {
	cfg := DatasetConfig{Scale: 0.25, Seed: 12}
	ds := IO500Dataset(cfg)
	r := Robustness(ds, label.BinaryBins(), 25, 3, 100)
	if len(r.Seeds) != 3 || len(r.Accuracies) != 3 {
		t.Fatalf("runs=%d", len(r.Seeds))
	}
	if r.MeanAccuracy() < 0.6 {
		t.Fatalf("mean accuracy %.3f", r.MeanAccuracy())
	}
	if r.StdAccuracy() < 0 {
		t.Fatal("negative std")
	}
	if !strings.Contains(r.Table().CSV(), "mean") || !strings.Contains(r.Table().Render(), "seeds") {
		t.Fatal("rendering broken")
	}
}

func TestPhaseStudySpread(t *testing.T) {
	r := PhaseStudy(PhaseStudyConfig{Scale: 0.5})
	if len(r.Phases) != 7 {
		t.Fatalf("phases=%d", len(r.Phases))
	}
	lo, hi := r.Spread()
	t.Logf("spread %.2fx .. %.2fx under %s", lo, hi, r.Interference)
	// The paper's §II-A point: an order of magnitude between the least
	// and most affected phase of one application.
	if hi < 5*lo {
		t.Fatalf("per-phase impact not spread enough: %.2f..%.2f", lo, hi)
	}
	if !strings.Contains(r.Table().Render(), "ior-hard-write") {
		t.Fatal("render missing interference name")
	}
	if !strings.Contains(r.Table().CSV(), "slowdown") {
		t.Fatal("csv missing header")
	}
}
