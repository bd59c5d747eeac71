package experiments

import (
	"fmt"
	"strings"

	"quanterference/internal/dataset"
	"quanterference/internal/monitor/clientmon"
	"quanterference/internal/monitor/window"
	"quanterference/internal/sim"
)

// AblationResult compares several model/feature/window configurations on
// held-out data — the design choices DESIGN.md calls out.
type AblationResult struct {
	Name  string
	Evals []*ModelEval
}

// Table lays out one row per configuration; the text adds each
// configuration's confusion panel as a note.
func (r *AblationResult) Table() *Table {
	t := &Table{
		Title:   "Ablation: " + r.Name,
		Columns: []Column{{Name: "config"}, {"accuracy", "%.4f"}, {"f1", "%.4f"}},
	}
	for _, e := range r.Evals {
		t.Rows = append(t.Rows, []any{strings.ReplaceAll(e.Name, ",", ";"), e.Confusion.Accuracy(), e.F1()})
		t.Notes = append(t.Notes, "\n"+e.Table().Render())
	}
	return t
}

// AblationArchitecture compares the paper's kernel-based model against a
// flat MLP over the concatenated per-server vectors (§III-C design choice).
func AblationArchitecture(ds *dataset.Dataset, cfg DatasetConfig, epochs int) *AblationResult {
	cfg.applyDefaults()
	return &AblationResult{
		Name: "kernel-based vs flat MLP",
		Evals: []*ModelEval{
			TrainEval("kernel-based (paper)", ds, cfg.Bins, epochs, cfg.Seed),
			TrainEvalWith("flat MLP baseline", ds, cfg.Bins, epochs, cfg.Seed, newFlatModel),
		},
	}
}

// AblationFeatures compares the full client+server vectors against each
// feature group alone (the paper's claim that the interaction of application
// behaviour and server state is what predicts impact).
func AblationFeatures(ds *dataset.Dataset, cfg DatasetConfig, epochs int) *AblationResult {
	cfg.applyDefaults()
	clientIdx := make([]int, clientmon.NumFeatures)
	for i := range clientIdx {
		clientIdx[i] = i
	}
	serverIdx := make([]int, window.NumFeatures-clientmon.NumFeatures)
	for i := range serverIdx {
		serverIdx[i] = clientmon.NumFeatures + i
	}
	return &AblationResult{
		Name: "feature groups",
		Evals: []*ModelEval{
			TrainEval("client + server (paper)", ds, cfg.Bins, epochs, cfg.Seed),
			TrainEval("client-side only", ds.SelectFeatures(clientIdx), cfg.Bins, epochs, cfg.Seed),
			TrainEval("server-side only", ds.SelectFeatures(serverIdx), cfg.Bins, epochs, cfg.Seed),
		},
	}
}

// AblationWindow sweeps the aggregation window size, re-collecting the IO500
// dataset per size (label quality and feature granularity both shift).
func AblationWindow(cfg DatasetConfig, epochs int, windows []sim.Time) *AblationResult {
	cfg.applyDefaults()
	if len(windows) == 0 {
		windows = []sim.Time{sim.Second, 2 * sim.Second, 4 * sim.Second}
	}
	res := &AblationResult{Name: "window size"}
	for _, w := range windows {
		c := cfg
		c.Window = w
		ds := IO500Dataset(c)
		name := fmt.Sprintf("window %ds (n=%d)", w/sim.Second, ds.Len())
		res.Evals = append(res.Evals, TrainEval(name, ds, c.Bins, epochs, c.Seed))
	}
	return res
}
