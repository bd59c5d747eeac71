package experiments

import (
	"quanterference/internal/core"
	"quanterference/internal/dataset"
	"quanterference/internal/ml"
)

// ExtensionArchitectures evaluates the paper's future-work direction: the
// self-attention model against the kernel-based model and the flat MLP, all
// on the same dataset and split.
func ExtensionArchitectures(ds *dataset.Dataset, cfg DatasetConfig, epochs int) *AblationResult {
	cfg.applyDefaults()
	res := &AblationResult{Name: "architectures (incl. attention extension)"}
	res.Evals = append(res.Evals,
		TrainEval("kernel-based (paper)", ds, cfg.Bins, epochs, cfg.Seed),
		TrainEvalWith("flat MLP", ds, cfg.Bins, epochs, cfg.Seed, newFlatModel),
		TrainEvalWith("self-attention (future work)", ds, cfg.Bins, epochs, cfg.Seed, newAttentionModel),
	)
	return res
}

// RegressionResult compares the exact-slowdown regressor (an extension the
// paper set aside) with the binary classifier on the same data.
type RegressionResult struct {
	MAELog2        float64
	RMSELog2       float64
	BinnedEval     *ModelEval // regressor predictions pushed through the bins
	ClassifierEval *ModelEval // the paper's classifier for comparison
}

// Table lays out the comparison; the text adds both confusion panels as
// notes.
func (r *RegressionResult) Table() *Table {
	return &Table{
		Title: "Extension: exact-slowdown regression vs classification (mae_log2, rmse_log2: regressor error in doublings)",
		Columns: []Column{{Name: "config"}, {"accuracy", "%.4f"}, {"f1", "%.4f"},
			{"mae_log2", "%.4f"}, {"rmse_log2", "%.4f"}},
		Rows: [][]any{
			{"regressor_binned", r.BinnedEval.Confusion.Accuracy(), r.BinnedEval.F1(), r.MAELog2, r.RMSELog2},
			{"classifier", r.ClassifierEval.Confusion.Accuracy(), r.ClassifierEval.F1(), "", ""},
		},
		Notes: []string{"\n" + r.BinnedEval.Table().Render(), "\n" + r.ClassifierEval.Table().Render()},
	}
}

// ExtensionRegression trains the kernel regressor on log2(degradation) and
// evaluates it both in log space and binned against the binary classifier.
func ExtensionRegression(ds *dataset.Dataset, cfg DatasetConfig, epochs int) *RegressionResult {
	cfg.applyDefaults()
	if epochs == 0 {
		epochs = 60
	}
	bins := cfg.Bins
	train, test := core.Holdout(ds, cfg.Seed)
	scaler := dataset.FitScaler(train)
	scaler.Transform(train)
	scaler.Transform(test)

	reg := ml.NewKernelRegressor(ds.NTargets, len(ds.FeatureNames), cfg.Seed)
	ml.TrainRegressor(reg, train, ml.TrainConfig{Epochs: epochs, Seed: cfg.Seed})
	ev := ml.EvaluateRegressor(reg, test, bins.Label, bins.Classes())

	return &RegressionResult{
		MAELog2:        ev.MAELog2,
		RMSELog2:       ev.RMSELog2,
		BinnedEval:     newModelEval("regressor (binned predictions)", bins, ev.Binned, ds, train, test),
		ClassifierEval: TrainEval("classifier (paper)", ds, bins, epochs, cfg.Seed),
	}
}
