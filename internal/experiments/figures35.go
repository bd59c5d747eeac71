package experiments

import (
	"fmt"

	"quanterference/internal/core"
	"quanterference/internal/dataset"
	"quanterference/internal/label"
	"quanterference/internal/ml"
	"quanterference/internal/par"
	"quanterference/internal/plot"
	"quanterference/internal/workload/apps"
)

// ModelEval is one trained-model evaluation: the content of one confusion-
// matrix panel in Figures 3-5.
type ModelEval struct {
	Name       string
	ClassNames []string
	Confusion  *ml.Confusion
	// TrainCounts/TestCounts report the class balance, which the paper
	// quotes for each dataset.
	TrainCounts []int
	TestCounts  []int
	Samples     int
}

// F1 returns the positive-class F1 for binary panels, or macro-F1 otherwise.
func (e *ModelEval) F1() float64 {
	if len(e.ClassNames) == 2 {
		return e.Confusion.F1(1)
	}
	return e.Confusion.MacroF1()
}

// Table lays out the panel: confusion counts by true (row) and predicted
// (column) class, then accuracy and macro-F1. The text adds the class
// balance and each class's precision, recall and F1.
func (e *ModelEval) Table() *Table {
	c := e.Confusion
	t := &Table{
		Title: fmt.Sprintf("%s (n=%d, train balance %v, test balance %v)",
			e.Name, e.Samples, e.TrainCounts, e.TestCounts),
		Columns: []Column{{Name: "true\\pred"}},
	}
	for i, name := range e.ClassNames {
		t.Columns = append(t.Columns, Column{name, "%.4f"})
		row := []any{name}
		for _, v := range c.M[i] {
			row = append(row, v)
		}
		t.Rows = append(t.Rows, row)
		t.Notes = append(t.Notes, fmt.Sprintf("%s: precision %.3f  recall %.3f  F1 %.3f",
			name, c.Precision(i), c.Recall(i), c.F1(i)))
	}
	t.Rows = append(t.Rows, []any{"accuracy", c.Accuracy()}, []any{"macro_f1", c.MacroF1()})
	t.Notes = append(t.Notes, fmt.Sprintf("n=%d held-out windows", c.Total()))
	return t
}

// TrainEval trains the paper's model on a dataset and evaluates it on the
// held-out 20%, producing one panel.
func TrainEval(name string, ds *dataset.Dataset, bins label.Bins, epochs int, seed int64) *ModelEval {
	return TrainEvalWith(name, ds, bins, epochs, seed, nil)
}

// TrainEvalWith trains the architecture newModel builds instead (nil is the
// paper's kernel model; see core.FrameworkConfig.NewModel).
func TrainEvalWith(name string, ds *dataset.Dataset, bins label.Bins, epochs int, seed int64,
	newModel func(nTargets, nFeat, classes int, seed int64) ml.Model) *ModelEval {
	if epochs == 0 {
		epochs = 60
	}
	if bins.Thresholds == nil {
		bins = label.BinaryBins()
	}
	// TrainFramework holds out the same windows (same seed), so counts match.
	train, test := core.Holdout(ds, seed)
	_, cm := mustTrain(ds, core.FrameworkConfig{
		Bins: bins, Seed: seed, NewModel: newModel,
		Train: ml.TrainConfig{Epochs: epochs, Seed: seed},
	})
	return newModelEval(name, bins, cm, ds, train, test)
}

// newModelEval assembles one panel from a confusion matrix and the train/test
// split of ds it came from.
func newModelEval(name string, bins label.Bins, cm *ml.Confusion, ds, train, test *dataset.Dataset) *ModelEval {
	return &ModelEval{
		Name:        name,
		ClassNames:  bins.Names(),
		Confusion:   cm,
		TrainCounts: train.ClassCounts(),
		TestCounts:  test.ClassCounts(),
		Samples:     ds.Len(),
	}
}

// newFlatModel and newAttentionModel are TrainEvalWith constructors for the
// flat-MLP ablation baseline and the self-attention extension.
func newFlatModel(nTargets, nFeat, classes int, seed int64) ml.Model {
	return ml.NewFlatModel(nTargets, nFeat, classes, seed)
}

func newAttentionModel(nTargets, nFeat, classes int, seed int64) ml.Model {
	return ml.NewAttentionModel(ml.AttentionConfig{
		NTargets: nTargets, NFeat: nFeat, Classes: classes, Seed: seed,
	})
}

// Figure3a trains and tests the binary model on the IO500 dataset.
func Figure3a(cfg DatasetConfig, epochs int) *ModelEval {
	cfg.applyDefaults()
	ds := IO500Dataset(cfg)
	return TrainEval("Figure 3(a) IO500 binary", ds, cfg.Bins, epochs, cfg.Seed)
}

// Figure3b trains and tests the binary model on the DLIO dataset.
func Figure3b(cfg DatasetConfig, epochs int) *ModelEval {
	cfg.applyDefaults()
	ds := DLIODataset(cfg)
	return TrainEval("Figure 3(b) DLIO binary", ds, cfg.Bins, epochs, cfg.Seed)
}

// Figure4 rebins the IO500 dataset to the paper's 3-class severity setting
// (<2x, 2-5x, >=5x) and trains the multi-class model.
func Figure4(cfg DatasetConfig, epochs int) *ModelEval {
	cfg.applyDefaults()
	binary := IO500Dataset(cfg)
	return Figure4From(binary, cfg, epochs)
}

// Figure4From rebins an already collected IO500 dataset (saves the
// simulation cost when Figure 3(a) ran first).
func Figure4From(ds *dataset.Dataset, cfg DatasetConfig, epochs int) *ModelEval {
	cfg.applyDefaults()
	bins := label.SeverityBins()
	multi := ds.Rebin(bins.Classes(), bins.Label)
	return TrainEval("Figure 4 IO500 3-class", multi, bins, epochs, cfg.Seed)
}

// Figure5 trains and tests one binary model per real application: AMReX and
// Enzo (data-intensive) and OpenPMD (metadata-intensive, few samples).
func Figure5(cfg DatasetConfig, epochs int) []*ModelEval {
	cfg.applyDefaults()
	sel := []apps.App{apps.AMReX, apps.Enzo, apps.OpenPMD}
	out := make([]*ModelEval, len(sel))
	par.Map(len(sel), func(i int) {
		ds := AppDataset(sel[i], cfg)
		out[i] = TrainEval("Figure 5 "+sel[i].String(), ds, cfg.Bins, epochs, cfg.Seed)
	})
	return out
}

// SVG renders the confusion matrix panel.
func (e *ModelEval) SVG() string {
	return plot.Confusion(e.Name, e.ClassNames, e.Confusion.M)
}
