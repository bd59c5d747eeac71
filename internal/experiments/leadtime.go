package experiments

import (
	"context"
	"fmt"

	"quanterference/internal/core"
	"quanterference/internal/dataset"
	"quanterference/internal/forecast"
	"quanterference/internal/ml"
	"quanterference/internal/sim"
	"quanterference/internal/workload/io500"
)

// LeadTimeConfig controls the forecasting study: how much accuracy a
// slowdown prediction loses as it moves from "this window" (the paper's
// classifier) to k windows ahead (the forecast sequence head), per hardware
// profile.
type LeadTimeConfig struct {
	// Profiles are the hardware profiles under study (default paper only;
	// the cross-profile sweep multiplies cost by its length).
	Profiles []string
	// Scale shrinks workload volumes (default 1.0).
	Scale Scale
	// Reps repeats the sweep with rotated OST placement (default 2).
	Reps int
	// Epochs trains the baseline classifier and every forecast head
	// (default 40).
	Epochs int
	Seed   int64
	// History is the forecaster's input length in windows and Horizons the
	// forecast leads studied, in windows (defaults: forecast.Config's).
	History  int
	Horizons []int
}

func (c *LeadTimeConfig) applyDefaults() {
	if len(c.Profiles) == 0 {
		c.Profiles = []string{"paper"}
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Reps == 0 {
		c.Reps = 2
	}
	if c.Epochs == 0 {
		c.Epochs = 40
	}
}

// LeadTimeResult holds the lead-time-vs-accuracy curves, one per profile.
// All per-horizon slices are indexed [profile][horizon] and parallel to
// Horizons.
type LeadTimeResult struct {
	Profiles []string
	History  int
	Horizons []int
	// Samples is each profile's window dataset size; LaggedSamples[i][j] is
	// how many of those windows are lead-labelable at Horizons[j] (runs
	// shorter than History+Horizon contribute nothing).
	Samples       []int
	LaggedSamples [][]int
	// Skipped[i][j] marks a horizon with no lead-labeled window on profile
	// i (no run spans History+Horizons[j] windows): no head is trained for
	// it, and its accuracy and alarm scores stay zero.
	Skipped [][]bool
	// Baseline is the current-window classifier's holdout accuracy — the
	// k=0 point every forecast horizon is measured against. Baseline and
	// forecast splits share a seed, so the comparison is like for like.
	Baseline []float64
	// Accuracy[i][j] is the forecast head's holdout accuracy predicting
	// Horizons[j] windows ahead on profile i.
	Accuracy [][]float64
	// AlarmPrecision and AlarmRecall score the degrading class (>=2x bin):
	// of the early warnings raised, how many were right, and of the
	// degradations coming, how many were warned about.
	AlarmPrecision [][]float64
	AlarmRecall    [][]float64
	// WeightsDigest is a sha256 over each profile's forecaster weights —
	// the determinism pin: same seed, same digest, bit for bit ("none" when
	// every horizon was skipped).
	WeightsDigest []string
}

// leadtimeSweep is the interference schedule for forecasting runs. Unlike
// the standard sweep, most variants hold their arrival back by several
// windows (startAt), so every run opens with a clean stretch and then
// degrades mid-stream — the transition a forecaster is supposed to call
// ahead of time. Staggered delays also keep the two classes balanced enough
// that the class-weighted loss stays sane.
var leadtimeSweep = sweep{dir: "/lt", entries: []sweepEntry{
	{task: io500.IorEasyRead, instances: 1, ranks: 4},
	{task: io500.IorEasyRead, instances: 2, ranks: 4, startAt: 4 * sim.Second},
	{task: io500.IorEasyWrite, instances: 1, ranks: 4, startAt: 7 * sim.Second},
	{task: io500.IorHardWrite, instances: 1, ranks: 4, startAt: 10 * sim.Second},
	{task: io500.MdtHardWrite, instances: 1, ranks: 4},
}}

// leadtimeDataset collects one profile's labelled window stream for
// forecasting. Unlike the IO500 dataset's targets (sized by cfg.Scale, a
// run lasting a few windows), forecasting needs runs spanning at least
// History+Horizon consecutive windows — and longer than the sweep's arrival
// delays. The targets are therefore sized in time (roughly 15-20
// unimpeded windows) and deliberately NOT scaled by
// cfg.Scale: the simulator runs in virtual time, so a fixed-size target
// costs the same wall clock at every scale, stays inside the collection cap
// at full scale, and keeps smoke runs long enough to lead-label. Scale still
// trims the interference workloads, which is what varies degradation.
func leadtimeDataset(cfg LeadTimeConfig, profile string) *dataset.Dataset {
	dc := DatasetConfig{Scale: cfg.Scale, Reps: cfg.Reps, Seed: cfg.Seed, Profile: profile}
	dc.applyDefaults()
	p := io500.Params{EasyFileBytes: 2 << 30, HardOps: 8000, MdtFiles: 1000}
	targets := io500Targets("/lt-", p, io500.IorEasyWrite, io500.IorHardWrite)
	return collectTargets(dc, targets, leadtimeSweep.variants(dc.Scale))
}

// LeadTimeStudy runs the forecasting experiment end to end, per profile:
// collect the labelled window stream (long-running targets against the
// trimmed interference sweep), train the current-window classifier as the
// k=0 baseline, train one forecast head per horizon
// (core.TrainForecasterCtx), and score each head's class accuracy and
// degradation-alarm precision/recall on its holdout. A horizon no run is
// long enough to lead-label on a profile is skipped and reported as such.
func LeadTimeStudy(cfg LeadTimeConfig) *LeadTimeResult {
	cfg.applyDefaults()
	fcfg := forecast.Config{History: cfg.History, Horizons: cfg.Horizons}
	fcfg.ApplyDefaults()
	n, m := len(cfg.Profiles), len(fcfg.Horizons)
	res := &LeadTimeResult{
		Profiles:       cfg.Profiles,
		History:        fcfg.History,
		Horizons:       fcfg.Horizons,
		Samples:        make([]int, n),
		LaggedSamples:  make([][]int, n),
		Skipped:        make([][]bool, n),
		Baseline:       make([]float64, n),
		Accuracy:       make([][]float64, n),
		AlarmPrecision: make([][]float64, n),
		AlarmRecall:    make([][]float64, n),
		WeightsDigest:  make([]string, n),
	}

	for i, profile := range cfg.Profiles {
		ds := leadtimeDataset(cfg, profile)
		res.Samples[i] = ds.Len()

		_, cm, err := core.TrainFrameworkE(ds, core.FrameworkConfig{
			Seed:  cfg.Seed,
			Train: ml.TrainConfig{Epochs: cfg.Epochs, Seed: cfg.Seed},
		})
		if err != nil {
			panic(fmt.Sprintf("experiments: leadtime baseline on %s: %v", profile, err))
		}
		res.Baseline[i] = cm.Accuracy()

		res.LaggedSamples[i] = make([]int, m)
		res.Skipped[i] = make([]bool, m)
		res.Accuracy[i] = make([]float64, m)
		res.AlarmPrecision[i] = make([]float64, m)
		res.AlarmRecall[i] = make([]float64, m)
		// Each head trains from its own seed, so leaving out a horizon
		// changes no other head.
		trained := fcfg
		trained.Horizons = nil
		for j, k := range fcfg.Horizons {
			res.LaggedSamples[i][j] = forecast.BuildLagged(ds, fcfg.History, k).Len()
			if res.LaggedSamples[i][j] == 0 {
				res.Skipped[i][j] = true
				continue
			}
			trained.Horizons = append(trained.Horizons, k)
		}
		if len(trained.Horizons) == 0 {
			res.WeightsDigest[i] = "none"
			continue
		}
		fc, cms, err := core.TrainForecasterCtx(context.Background(), ds, core.ForecasterConfig{
			Forecast: trained,
			Train:    ml.TrainConfig{Epochs: cfg.Epochs, Seed: cfg.Seed},
			Seed:     cfg.Seed,
		})
		if err != nil {
			panic(fmt.Sprintf("experiments: leadtime forecaster on %s: %v", profile, err))
		}
		for j := range fcfg.Horizons {
			if res.Skipped[i][j] {
				continue
			}
			cm := cms[0]
			cms = cms[1:]
			res.Accuracy[i][j] = cm.Accuracy()
			res.AlarmPrecision[i][j] = cm.Precision(1)
			res.AlarmRecall[i][j] = cm.Recall(1)
		}
		res.WeightsDigest[i] = ml.WeightsDigest(fc.ExportWeights())
	}
	return res
}

// Delta returns Accuracy[i][j] - Baseline[i]: what forecasting Horizons[j]
// windows ahead costs (negative) or gains over classifying the current
// window.
func (r *LeadTimeResult) Delta(i, j int) float64 {
	return r.Accuracy[i][j] - r.Baseline[i]
}

// Table lays out one row per (profile, horizon) point, then one digest row
// per profile. Horizon 0 is the current-window baseline, and a skipped
// horizon reads "skipped" in the accuracy column; the text adds why it was
// skipped.
func (r *LeadTimeResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Forecast lead time vs accuracy (history %d windows, horizons in windows)", r.History),
		Columns: []Column{{Name: "profile"}, {Name: "horizon"}, {Name: "samples"}, {"accuracy", "%.4f"},
			{"delta_vs_now", "%+.4f"}, {"alarm_precision", "%.4f"}, {"alarm_recall", "%.4f"}},
	}
	for i, p := range r.Profiles {
		t.Rows = append(t.Rows, []any{p, 0, r.Samples[i], r.Baseline[i], "0.0000", "", ""})
		for j, k := range r.Horizons {
			if r.Skipped[i][j] {
				t.Rows = append(t.Rows, []any{p, k, 0, "skipped", "", "", ""})
				t.Notes = append(t.Notes, fmt.Sprintf("%s +%dw skipped: no run spans %d windows", p, k, r.History+k))
				continue
			}
			t.Rows = append(t.Rows, []any{p, k, r.LaggedSamples[i][j], r.Accuracy[i][j],
				r.Delta(i, j), r.AlarmPrecision[i][j], r.AlarmRecall[i][j]})
		}
	}
	for i, p := range r.Profiles {
		t.Rows = append(t.Rows, []any{"digest", p, r.WeightsDigest[i]})
	}
	return t
}
