package experiments

import (
	"fmt"

	"quanterference/internal/core"
	"quanterference/internal/dataset"
	"quanterference/internal/label"
	"quanterference/internal/ml"
	"quanterference/internal/workload/io500"
)

// TransferConfig controls the cross-profile model-transfer study: how well a
// model trained on one hardware profile predicts interference on another,
// zero-shot and after a warm-started fine-tune pass.
type TransferConfig struct {
	// Profiles are the hardware profiles under study, by hw.Names name
	// (default paper, nvme, fastnic). At least two are required for any
	// cross-profile pair to exist.
	Profiles []string
	// Scale shrinks workload volumes (default 1.0).
	Scale Scale
	// Epochs trains each in-domain model (default 40).
	Epochs int
	Seed   int64
}

func (c *TransferConfig) applyDefaults() {
	if len(c.Profiles) == 0 {
		c.Profiles = []string{"paper", "nvme", "fastnic"}
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Epochs == 0 {
		c.Epochs = 40
	}
}

const (
	// transferReps repeats each profile's sweep with rotated OST placement,
	// trimmed against DatasetConfig's 3 because the study multiplies
	// everything by the profile count.
	transferReps = 2
	// transferFineTuneEpochs is the warm-started adaptation pass on the
	// target profile's data, a fraction of the default 40 training epochs:
	// the point of transfer is paying less than full retraining.
	transferFineTuneEpochs = 12
)

// transferTasks are each profile's dataset targets and the rows and columns
// of its mini interference matrix: one bulk writer, one bulk reader, one
// metadata task.
var transferTasks = []io500.Task{io500.IorEasyWrite, io500.IorEasyRead, io500.MdtHardWrite}

// TransferResult holds the study's accuracy table and the per-profile
// interference matrices.
type TransferResult struct {
	Profiles []string
	// Samples and ClassCounts describe each profile's dataset.
	Samples     []int
	ClassCounts [][]int
	// InDomain is train-and-test accuracy on the same profile — the ceiling
	// a transferred model is measured against.
	InDomain []float64
	// ZeroShot[a][b] evaluates profile a's model, unchanged, on profile b's
	// held-out test set (diagonal = InDomain).
	ZeroShot [][]float64
	// FineTuned[a][b] warm-starts from profile a's model and retrains
	// briefly on profile b's data before evaluating on the same test set
	// (diagonal = InDomain).
	FineTuned [][]float64
	// Matrices are the per-profile mini interference matrices
	// (transferTasks subset of Table I), showing how the contention
	// patterns themselves shift across hardware.
	Matrices []*TableIResult
}

// Gap returns the zero-shot transfer gap InDomain[b] - ZeroShot[a][b]: how
// much accuracy moving a model from profile a to b costs before adaptation.
func (r *TransferResult) Gap(a, b int) float64 {
	return r.InDomain[b] - r.ZeroShot[a][b]
}

// transferSweep is a trimmed interference sweep — one intensity per
// contention class — keeping the per-profile collection cost proportionate to
// the number of profiles the study multiplies it by.
var transferSweep = sweep{dir: "/tsweep", entries: []sweepEntry{
	{task: io500.IorEasyRead, instances: 1, ranks: 4},
	{task: io500.IorEasyRead, instances: 2, ranks: 4},
	{task: io500.IorEasyWrite, instances: 1, ranks: 4},
	{task: io500.IorHardWrite, instances: 1, ranks: 4},
	{task: io500.MdtHardWrite, instances: 1, ranks: 4},
}}

// transferDataset collects one profile's labelled windows: the transferTasks
// targets against the trimmed sweep.
func transferDataset(cfg TransferConfig, profile string) *dataset.Dataset {
	dc := DatasetConfig{Scale: cfg.Scale, Reps: transferReps, Seed: cfg.Seed, Profile: profile}
	dc.applyDefaults()
	targets := io500Targets("/tfr-", io500Params(dc.Scale), transferTasks...)
	return collectTargets(dc, targets, transferSweep.variants(dc.Scale))
}

// TransferStudy runs the cross-profile experiment end to end: per-profile
// dataset collection and in-domain training, zero-shot evaluation of every
// ordered profile pair, a warm-started fine-tune for each pair, and a mini
// interference matrix per profile. Both transfer variants are scored on the
// same held-out split of the target profile's data (the split seed matches
// TrainFramework's internal one), so their accuracies are directly
// comparable.
func TransferStudy(cfg TransferConfig) *TransferResult {
	cfg.applyDefaults()
	n := len(cfg.Profiles)
	res := &TransferResult{
		Profiles:    cfg.Profiles,
		Samples:     make([]int, n),
		ClassCounts: make([][]int, n),
		InDomain:    make([]float64, n),
		ZeroShot:    make([][]float64, n),
		FineTuned:   make([][]float64, n),
		Matrices:    make([]*TableIResult, n),
	}

	ds := make([]*dataset.Dataset, n)
	fw := make([]*core.Framework, n)
	for i, name := range cfg.Profiles {
		ds[i] = transferDataset(cfg, name)
		res.Samples[i] = ds[i].Len()
		res.ClassCounts[i] = ds[i].ClassCounts()
		f, cm, err := core.TrainFrameworkE(ds[i], core.FrameworkConfig{
			Seed:  cfg.Seed,
			Train: ml.TrainConfig{Epochs: cfg.Epochs, Seed: cfg.Seed},
		})
		if err != nil {
			panic(fmt.Sprintf("experiments: transfer training on %s: %v", name, err))
		}
		fw[i] = f
		res.InDomain[i] = cm.Accuracy()
		// Matrix runs are capped like the collection runs, not at
		// TableI's own 300 s default.
		res.Matrices[i] = TableI(TableIConfig{
			Scale:            cfg.Scale,
			Instances:        1,
			RanksPerInstance: 4,
			MaxTime:          collectMaxTime,
			Profile:          name,
			Tasks:            transferTasks,
		})
	}

	for a := 0; a < n; a++ {
		res.ZeroShot[a] = make([]float64, n)
		res.FineTuned[a] = make([]float64, n)
		for b := 0; b < n; b++ {
			if a == b {
				res.ZeroShot[a][b] = res.InDomain[b]
				res.FineTuned[a][b] = res.InDomain[b]
				continue
			}
			// Zero-shot: profile a's model reads profile b's test windows
			// through a's scaler — the model is moved verbatim. The split
			// seed matches TrainFramework's internal split, so this is the
			// same test set the in-domain and fine-tuned numbers use.
			_, test := ds[b].Split(0.2, cfg.Seed^0x5717)
			scaled := test.Copy()
			fw[a].Scaler.Transform(scaled)
			res.ZeroShot[a][b] = ml.Evaluate(fw[a].Model, scaled).Accuracy()

			_, cm, err := core.TrainFrameworkE(ds[b], core.FrameworkConfig{
				Seed:  cfg.Seed,
				Train: ml.TrainConfig{Epochs: transferFineTuneEpochs, Seed: cfg.Seed},
			}, core.WithWarmStart(fw[a]))
			if err != nil {
				panic(fmt.Sprintf("experiments: transfer fine-tune %s->%s: %v",
					cfg.Profiles[a], cfg.Profiles[b], err))
			}
			res.FineTuned[a][b] = cm.Accuracy()
		}
	}
	return res
}

// Table lays out one row per (kind, train, eval) accuracy cell, then two
// kinds of nested table, each of whose CSV sections follows a blank line
// and a label line: each profile's dataset size and windows per class
// (datasets), and each profile's interference matrix (matrix,<profile>).
func (r *TransferResult) Table() *Table {
	t := &Table{
		Title:   "Cross-profile model transfer",
		Columns: []Column{{Name: "kind"}, {Name: "train_profile"}, {Name: "eval_profile"}, {"accuracy", "%.4f"}},
	}
	for i, p := range r.Profiles {
		t.Rows = append(t.Rows, []any{"in_domain", p, p, r.InDomain[i]})
	}
	for a, pa := range r.Profiles {
		for b, pb := range r.Profiles {
			if a == b {
				continue
			}
			t.Rows = append(t.Rows,
				[]any{"zero_shot", pa, pb, r.ZeroShot[a][b]},
				[]any{"fine_tuned", pa, pb, r.FineTuned[a][b]},
				[]any{"gap", pa, pb, r.Gap(a, b)})
		}
	}
	t.Notes = append(t.Notes, "gap: in-domain minus zero-shot accuracy; when train = eval, zero_shot and\n"+
		"fine_tuned equal in_domain and gap is 0.000")

	// Every transfer dataset is labelled with the default binary bins.
	sets := &Table{
		Title:   "Transfer datasets: windows per class",
		Label:   "\ndatasets",
		Columns: []Column{{Name: "profile"}, {Name: "samples"}},
	}
	for _, name := range label.BinaryBins().Names() {
		sets.Columns = append(sets.Columns, Column{Name: name})
	}
	for i, p := range r.Profiles {
		row := []any{p, r.Samples[i]}
		for _, n := range r.ClassCounts[i] {
			row = append(row, n)
		}
		sets.Rows = append(sets.Rows, row)
	}
	t.Tables = append(t.Tables, sets)
	for i, p := range r.Profiles {
		m := r.Matrices[i].Table()
		m.Title, m.Label = "Interference matrix on "+p, "\nmatrix,"+p
		t.Tables = append(t.Tables, m)
	}
	return t
}
