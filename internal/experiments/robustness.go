package experiments

import (
	"fmt"

	"quanterference/internal/dataset"
	"quanterference/internal/label"
	"quanterference/internal/stats"
)

// RobustnessResult reports accuracy/F1 variation across random seeds (split
// and initialization), a check the paper's single-split numbers lack.
type RobustnessResult struct {
	Seeds      []int64
	Accuracies []float64
	F1s        []float64
}

// MeanAccuracy and friends summarize the runs.
func (r *RobustnessResult) MeanAccuracy() float64 { return stats.Mean(r.Accuracies) }
func (r *RobustnessResult) StdAccuracy() float64  { return stats.Std(r.Accuracies) }
func (r *RobustnessResult) MeanF1() float64       { return stats.Mean(r.F1s) }
func (r *RobustnessResult) StdF1() float64        { return stats.Std(r.F1s) }

// Table lays out one row per seed, then the mean and standard deviation.
func (r *RobustnessResult) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Robustness over %d seeds", len(r.Seeds)),
		Columns: []Column{{Name: "seed"}, {"accuracy", "%.4f"}, {"f1", "%.4f"}},
	}
	for i, s := range r.Seeds {
		t.Rows = append(t.Rows, []any{s, r.Accuracies[i], r.F1s[i]})
	}
	t.Rows = append(t.Rows,
		[]any{"mean", r.MeanAccuracy(), r.MeanF1()},
		[]any{"std", r.StdAccuracy(), r.StdF1()})
	return t
}

// Robustness retrains the model on the same dataset with n different seeds
// (each reshuffling the 80/20 split and the weight init) and collects the
// held-out metrics.
func Robustness(ds *dataset.Dataset, bins label.Bins, epochs, n int, baseSeed int64) *RobustnessResult {
	if n <= 0 {
		n = 5
	}
	res := &RobustnessResult{}
	for i := 0; i < n; i++ {
		seed := baseSeed + int64(i)*101
		ev := TrainEval(fmt.Sprintf("seed %d", seed), ds, bins, epochs, seed)
		res.Seeds = append(res.Seeds, seed)
		res.Accuracies = append(res.Accuracies, ev.Confusion.Accuracy())
		f1 := ev.F1()
		res.F1s = append(res.F1s, f1)
	}
	return res
}
