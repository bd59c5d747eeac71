package experiments

import (
	"fmt"
	"strings"

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

// Render summarizes the comparison.
func (r *RegressionResult) Render() string {
	var b strings.Builder
	b.WriteString("Extension: exact-slowdown regression vs classification\n")
	fmt.Fprintf(&b, "  regressor MAE %.3f doublings (RMSE %.3f)\n", r.MAELog2, r.RMSELog2)
	fmt.Fprintf(&b, "  %-34s accuracy %.3f  F1 %.3f\n", "regressor (binned)",
		r.BinnedEval.Confusion.Accuracy(), r.BinnedEval.F1())
	fmt.Fprintf(&b, "  %-34s accuracy %.3f  F1 %.3f\n", "classifier (paper)",
		r.ClassifierEval.Confusion.Accuracy(), r.ClassifierEval.F1())
	b.WriteString("\n" + r.BinnedEval.Render())
	b.WriteString("\n" + r.ClassifierEval.Render())
	return b.String()
}

// CSV emits the comparison rows.
func (r *RegressionResult) CSV() string {
	var b strings.Builder
	b.WriteString("config,accuracy,f1,mae_log2,rmse_log2\n")
	fmt.Fprintf(&b, "regressor_binned,%.4f,%.4f,%.4f,%.4f\n",
		r.BinnedEval.Confusion.Accuracy(), r.BinnedEval.F1(), r.MAELog2, r.RMSELog2)
	fmt.Fprintf(&b, "classifier,%.4f,%.4f,,\n",
		r.ClassifierEval.Confusion.Accuracy(), r.ClassifierEval.F1())
	return b.String()
}

// ExtensionRegression trains the kernel regressor on log2(degradation) and
// evaluates it both in log space and binned against the binary classifier.
func ExtensionRegression(ds *dataset.Dataset, cfg DatasetConfig, epochs int) *RegressionResult {
	cfg.applyDefaults()
	if epochs == 0 {
		epochs = 60
	}
	bins := cfg.Bins
	train, test := ds.Split(0.2, cfg.Seed^0x5717)
	train, test = train.Copy(), test.Copy()
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
