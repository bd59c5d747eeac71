package forecast

import (
	"errors"
	"path/filepath"
	"testing"

	"quanterference/internal/dataset"
	"quanterference/internal/label"
	"quanterference/internal/ml"
	"quanterference/internal/monitor/window"
)

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.ApplyDefaults()
	if c.History != 4 || c.Threshold != 1 {
		t.Fatalf("defaults: %+v", c)
	}
	if len(c.Horizons) != 3 || c.Horizons[0] != 1 || c.Horizons[1] != 2 || c.Horizons[2] != 4 {
		t.Fatalf("default horizons %v", c.Horizons)
	}

	c = Config{History: 2, Horizons: []int{4, 1, 4, 2, 1}, Threshold: 2}
	c.ApplyDefaults()
	if len(c.Horizons) != 3 || c.Horizons[0] != 1 || c.Horizons[1] != 2 || c.Horizons[2] != 4 {
		t.Fatalf("normalized horizons %v", c.Horizons)
	}
	if c.History != 2 || c.Threshold != 2 {
		t.Fatalf("explicit fields clobbered: %+v", c)
	}
}

// TestConfigDefaultsKeepCallerHorizons pins that ApplyDefaults normalizes
// a copy: a caller that copies the Config struct shares its Horizons array
// and must read it unchanged afterwards.
func TestConfigDefaultsKeepCallerHorizons(t *testing.T) {
	horizons := []int{4, 1, 1}
	c := Config{Horizons: horizons}
	c.ApplyDefaults()
	if len(c.Horizons) != 2 || c.Horizons[0] != 1 || c.Horizons[1] != 4 {
		t.Fatalf("normalized horizons %v, want [1 4]", c.Horizons)
	}
	if horizons[0] != 4 || horizons[1] != 1 || horizons[2] != 1 {
		t.Fatalf("caller's horizons rewritten to %v, want [4 1 1]", horizons)
	}
}

func TestConfigValidate(t *testing.T) {
	for _, c := range []Config{
		{History: 0, Horizons: []int{1}},
		{History: 4, Horizons: []int{0}},
		{History: 4, Horizons: []int{-1, 2}},
		{History: 4, Horizons: []int{1}, Threshold: -1},
	} {
		if err := c.Validate(); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("config %+v: err=%v, want ErrBadConfig", c, err)
		}
	}
	good := Config{History: 4, Horizons: []int{1, 2}, Threshold: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestPool(t *testing.T) {
	mat := window.Matrix{
		{1, 10},
		{3, -2},
		{2, 4},
	}
	got := Pool(mat)
	want := []float64{2, 3, 4, 10} // f0: mean 2 max 3; f1: mean 4 max 10
	if len(got) != len(want) {
		t.Fatalf("pooled width %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pooled[%d]=%g, want %g (full %v)", i, got[i], want[i], got)
		}
	}
	names := PoolNames([]string{"iops", "lat"})
	wantNames := []string{"iops_mean", "iops_max", "lat_mean", "lat_max"}
	for i := range wantNames {
		if names[i] != wantNames[i] {
			t.Fatalf("names %v", names)
		}
	}
}

// windowDS builds a window-labeled dataset like CollectDatasetCtx's output:
// one run of n consecutive windows, 2 targets x 2 features, where window w's
// vectors encode w (so lag tests can check which window landed where) and the
// label is 1 iff w is in degraded.
func windowDS(n int, degraded map[int]bool) *dataset.Dataset {
	d := dataset.New([]string{"f0", "f1"}, 2, 2)
	d.Profile = "paper"
	for w := 0; w < n; w++ {
		lbl, deg := 0, 1.0
		if degraded[w] {
			lbl, deg = 1, 3.0
		}
		d.Add(&dataset.Sample{
			Workload: "ior", Run: "r0", Window: w,
			Degradation: deg, Label: lbl,
			Vectors: [][]float64{
				{float64(w), float64(w) * 10},
				{float64(w) + 1, float64(w) * 10},
			},
		})
	}
	return d
}

func TestBuildLaggedShapesAndLabels(t *testing.T) {
	ds := windowDS(8, map[int]bool{6: true})
	lag := BuildLagged(ds, 3, 2)

	// Origins need windows w-2..w and w+2: w in 2..5 -> 4 samples.
	if lag.Len() != 4 {
		t.Fatalf("lagged len %d, want 4", lag.Len())
	}
	if lag.NTargets != 3 || lag.Classes != 2 || lag.Profile != "paper" {
		t.Fatalf("schema %d targets %d classes profile %q", lag.NTargets, lag.Classes, lag.Profile)
	}
	if len(lag.FeatureNames) != 4 || lag.FeatureNames[0] != "f0_mean" {
		t.Fatalf("feature names %v", lag.FeatureNames)
	}

	for _, s := range lag.Samples {
		// Label comes from the lead window.
		wantLbl := 0
		if s.Window+2 == 6 {
			wantLbl = 1
		}
		if s.Label != wantLbl {
			t.Fatalf("origin %d label %d, want %d", s.Window, s.Label, wantLbl)
		}
		// Vectors are the pooled history oldest-first: row i is window
		// s.Window-2+i, whose f0 mean is that window index + 0.5.
		for i, vec := range s.Vectors {
			if want := float64(s.Window-2+i) + 0.5; vec[0] != want {
				t.Fatalf("origin %d row %d f0_mean=%g, want %g", s.Window, i, vec[0], want)
			}
		}
	}
}

func TestBuildLaggedGapBreaksStretch(t *testing.T) {
	ds := windowDS(8, nil)
	// Drop window 3 (as the collector's min-ops filter would).
	kept := ds.Samples[:0]
	for _, s := range ds.Samples {
		if s.Window != 3 {
			kept = append(kept, s)
		}
	}
	ds.Samples = kept

	lag := BuildLagged(ds, 3, 1)
	// Full data would give origins 2..6. Window 3 missing kills origins
	// 2 (lead missing path is fine but 3 is inside no origin's lead; it is a
	// history member of 3,4,5) and any origin needing it: 3,4,5 as history,
	// and origin 2 whose lead is 3. Survivor: origin 6 only.
	if lag.Len() != 1 || lag.Samples[0].Window != 6 {
		got := []int{}
		for _, s := range lag.Samples {
			got = append(got, s.Window)
		}
		t.Fatalf("surviving origins %v, want [6]", got)
	}
}

func TestBuildLaggedDeterministic(t *testing.T) {
	ds := windowDS(10, map[int]bool{4: true, 9: true})
	a, b := BuildLagged(ds, 4, 1), BuildLagged(ds, 4, 1)
	if a.Len() != b.Len() {
		t.Fatalf("lens differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Samples {
		if a.Samples[i].Window != b.Samples[i].Window {
			t.Fatal("same input, different sample order")
		}
	}
}

func TestBuildLaggedPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BuildLagged(windowDS(4, nil), 0, 1)
}

// testForecaster builds a small untrained forecaster directly: identity
// scalers and freshly seeded kernel heads over nFeat raw features.
func testForecaster(history, nFeat, classes int, horizons []int) *Forecaster {
	f := &Forecaster{History: history, Threshold: 1, Bins: label.BinaryBins()}
	for _, k := range horizons {
		scaler := &dataset.Scaler{
			Mean: make([]float64, 2*nFeat),
			Std:  make([]float64, 2*nFeat),
		}
		for j := range scaler.Std {
			scaler.Std[j] = 1
		}
		f.Heads = append(f.Heads, &Head{
			Horizon: k,
			Model: ml.NewKernelModel(ml.KernelConfig{
				NTargets: history, NFeat: 2 * nFeat, Classes: classes,
				Seed: 11 + int64(k),
			}),
			Scaler: scaler,
		})
	}
	return f
}

func histWindows(history, targets, nFeat int) []window.Matrix {
	hist := make([]window.Matrix, history)
	for i := range hist {
		mat := make(window.Matrix, targets)
		for t := range mat {
			row := make([]float64, nFeat)
			for j := range row {
				row[j] = float64(i*7+t*3+j) / 5
			}
			mat[t] = row
		}
		hist[i] = mat
	}
	return hist
}

func TestPredictValidatesHistory(t *testing.T) {
	f := testForecaster(3, 2, 2, []int{1, 2})
	if h, nf := f.Dims(); h != 3 || nf != 2 {
		t.Fatalf("Dims = %d,%d", h, nf)
	}

	if _, err := f.Predict(histWindows(2, 2, 2)); !errors.Is(err, ErrBadHistory) {
		t.Fatalf("short history: %v", err)
	}
	if _, err := f.Predict(histWindows(3, 2, 5)); !errors.Is(err, ErrBadHistory) {
		t.Fatalf("wide rows: %v", err)
	}
	bad := histWindows(3, 2, 2)
	bad[1] = window.Matrix{}
	if _, err := f.Predict(bad); !errors.Is(err, ErrBadHistory) {
		t.Fatalf("empty window: %v", err)
	}
}

func TestPredictShapeAndDeterminism(t *testing.T) {
	f := testForecaster(3, 2, 2, []int{1, 2, 4})
	hist := histWindows(3, 4, 2) // row count need not match training targets

	p1, err := f.Predict(hist)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Horizons) != 3 || len(p1.Classes) != 3 || len(p1.Probs) != 3 {
		t.Fatalf("prediction shape %+v", p1)
	}
	for i, probs := range p1.Probs {
		if len(probs) != 2 {
			t.Fatalf("head %d probs %v", i, probs)
		}
		sum := probs[0] + probs[1]
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("head %d probs do not sum to 1: %v", i, probs)
		}
	}
	// LeadWindows is the first (smallest) horizon whose class passes the
	// threshold, and 0 means "no degradation predicted".
	if p1.Degrading() {
		found := 0
		for i, c := range p1.Classes {
			if c >= f.Threshold {
				found = p1.Horizons[i]
				break
			}
		}
		if p1.LeadWindows != found {
			t.Fatalf("LeadWindows %d, first tripping horizon %d", p1.LeadWindows, found)
		}
	} else {
		for _, c := range p1.Classes {
			if c >= f.Threshold {
				t.Fatalf("class %d passes threshold but Degrading is false", c)
			}
		}
	}

	p2, err := f.Predict(hist)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1.Probs {
		for c := range p1.Probs[i] {
			if p1.Probs[i][c] != p2.Probs[i][c] {
				t.Fatal("same history, different probabilities")
			}
		}
	}
	if &p1.Probs[0][0] == &p2.Probs[0][0] {
		t.Fatal("predictions share prob storage")
	}
}

func TestTrackerWindowing(t *testing.T) {
	f := testForecaster(3, 2, 2, []int{1})
	tr := NewTracker(f)
	if tr.Ready() {
		t.Fatal("empty tracker ready")
	}
	mats := histWindows(5, 2, 2)
	for i, m := range mats {
		tr.Offer(m)
		if want := i >= 2; tr.Ready() != want {
			t.Fatalf("after %d offers Ready=%v", i+1, tr.Ready())
		}
	}
	// Tracker holds the last 3 windows: predictions must match a direct
	// Predict over mats[2:5].
	pt, err := tr.Predict()
	if err != nil {
		t.Fatal(err)
	}
	pd, err := f.Predict(mats[2:5])
	if err != nil {
		t.Fatal(err)
	}
	for i := range pt.Probs {
		for c := range pt.Probs[i] {
			if pt.Probs[i][c] != pd.Probs[i][c] {
				t.Fatal("tracker kept the wrong windows")
			}
		}
	}
	tr.Reset()
	if tr.Ready() {
		t.Fatal("ready after reset")
	}
}

func TestCloneIsIndependentAndWeightEqual(t *testing.T) {
	f := testForecaster(2, 2, 2, []int{1, 3})
	c, err := f.Clone()
	if err != nil {
		t.Fatal(err)
	}
	wf, wc := f.ExportWeights(), c.ExportWeights()
	if len(wf) == 0 || len(wf) != len(wc) {
		t.Fatalf("weight tensor counts %d vs %d", len(wf), len(wc))
	}
	for i := range wf {
		for j := range wf[i] {
			if wf[i][j] != wc[i][j] {
				t.Fatal("clone weights differ")
			}
		}
	}
	hist := histWindows(2, 2, 2)
	pf, _ := f.Predict(hist)
	pc, _ := c.Predict(hist)
	for i := range pf.Probs {
		for j := range pf.Probs[i] {
			if pf.Probs[i][j] != pc.Probs[i][j] {
				t.Fatal("clone predicts differently")
			}
		}
	}

	// Mutating the clone's scaler must not reach the original.
	c.Heads[0].Scaler.Mean[0] = 99
	if f.Heads[0].Scaler.Mean[0] == 99 {
		t.Fatal("clone shares scaler storage")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	f := testForecaster(3, 2, 2, []int{1, 2})
	path := filepath.Join(t.TempDir(), "forecaster.json")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.History != 3 || got.Threshold != 1 || len(got.Heads) != 2 {
		t.Fatalf("loaded %+v", got)
	}
	if got.Bins.Classes() != 2 {
		t.Fatalf("bins lost: %v", got.Bins)
	}
	hist := histWindows(3, 2, 2)
	p1, err := f.Predict(hist)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := got.Predict(hist)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1.Probs {
		for c := range p1.Probs[i] {
			if p1.Probs[i][c] != p2.Probs[i][c] {
				t.Fatal("round trip changed predictions")
			}
		}
	}
}

func TestLoadRejectsForeignFiles(t *testing.T) {
	dir := t.TempDir()

	ds := windowDS(4, nil)
	dsPath := filepath.Join(dir, "ds.json")
	if err := ds.Save(dsPath); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dsPath); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("dataset file accepted as forecaster: %v", err)
	}

	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}
