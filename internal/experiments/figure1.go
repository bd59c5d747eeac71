package experiments

import (
	"fmt"
	"strings"

	"quanterference/internal/core"
	"quanterference/internal/label"
	"quanterference/internal/par"
	"quanterference/internal/plot"
	"quanterference/internal/sim"
	"quanterference/internal/stats"
	"quanterference/internal/workload"
	"quanterference/internal/workload/apps"
	"quanterference/internal/workload/io500"
)

// Figure1Config controls the Enzo per-operation latency experiment.
type Figure1Config struct {
	Scale Scale
	// Smooth is the moving-average window over op index (default 9).
	Smooth int
	// Ranks sizes the Enzo run (default 2).
	Ranks int
	// Cycles is the number of Enzo output cycles (default 6).
	Cycles int
}

func (c *Figure1Config) applyDefaults() {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Smooth == 0 {
		c.Smooth = 9
	}
	if c.Ranks == 0 {
		c.Ranks = 2
	}
	if c.Cycles == 0 {
		c.Cycles = 6
	}
}

const (
	// figure1Cutoff keeps only ops starting within this span of the
	// baseline (the paper plots the first 50 s).
	figure1Cutoff = 50 * sim.Second
	// figure1MaxTime caps each Enzo run.
	figure1MaxTime = 300 * sim.Second
)

// Figure1Result is one panel: per-op time series per run label.
type Figure1Result struct {
	// Panel is "a" (levels) or "b" (types).
	Panel string
	// Kinds is the op type at each index (read/write/open/...).
	Kinds []string
	// Labels name the runs (e.g. "baseline", "1x ior-easy-write").
	Labels []string
	// Times[label][op] is the smoothed op latency in milliseconds.
	Times [][]float64
}

func enzoTarget(cfg Figure1Config) core.TargetSpec {
	return core.TargetSpec{
		Gen: apps.New(apps.Enzo, apps.Params{
			Dir:             "/enzo",
			Ranks:           cfg.Ranks,
			Cycles:          cfg.Cycles,
			CheckpointBytes: cfg.Scale.Bytes(8 << 20),
		}),
		Nodes: targetNodes,
		Ranks: cfg.Ranks,
	}
}

// figure1Run measures one Enzo run and returns its records.
func figure1Run(cfg Figure1Config, interf []core.InterferenceSpec) []workload.Record {
	res := mustRun(core.Scenario{
		Target:       enzoTarget(cfg),
		Interference: interf,
		MaxTime:      figure1MaxTime,
	})
	return res.Records
}

// Figure1a reproduces Figure 1(a): Enzo op latencies under 1, 2, and 3
// concurrent ior-easy-write instances versus baseline.
func Figure1a(cfg Figure1Config) *Figure1Result {
	cfg.applyDefaults()
	res := &Figure1Result{Panel: "a"}
	runs := make([][]workload.Record, 4)
	res.Labels = []string{"baseline", "1x ior-easy-write", "2x ior-easy-write", "3x ior-easy-write"}
	par.Map(4, func(n int) {
		var specs []core.InterferenceSpec
		if n > 0 {
			specs = IO500Instances(io500.IorEasyWrite, n, 6,
				io500Params(cfg.Scale), fmt.Sprintf("/bgw%d", n))
		}
		runs[n] = figure1Run(cfg, specs)
	})
	res.collate(runs[0], runs, cfg)
	return res
}

// Figure1b reproduces Figure 1(b): data-intensive vs metadata-intensive
// interference types.
func Figure1b(cfg Figure1Config) *Figure1Result {
	cfg.applyDefaults()
	res := &Figure1Result{Panel: "b"}
	base := figure1Run(cfg, nil)
	dataSpecs := IO500Instances(io500.IorEasyWrite, 2, 6,
		io500Params(cfg.Scale), "/bgdata")
	// Metadata pressure needs more concurrent streams to saturate the
	// MDS's few cores the way mdt-easy with many processes does.
	metaSpecs := IO500Instances(io500.MdtEasyWrite, 3, 8,
		io500Params(cfg.Scale), "/bgmeta")
	runs := [][]workload.Record{base, figure1Run(cfg, dataSpecs), figure1Run(cfg, metaSpecs)}
	res.Labels = []string{"baseline", "ior-easy-write", "mdt-easy-write"}
	res.collate(base, runs, cfg)
	return res
}

// collate matches each run's ops to the baseline op sequence (first
// figure1Cutoff) and produces smoothed latency series.
func (r *Figure1Result) collate(base []workload.Record, runs [][]workload.Record, cfg Figure1Config) {
	// Baseline op order within the cutoff.
	var keys []label.Key
	for _, rec := range base {
		if rec.Start <= figure1Cutoff {
			keys = append(keys, label.KeyOf(rec))
			r.Kinds = append(r.Kinds, rec.Op.Kind.String())
		}
	}
	for _, recs := range runs {
		durs := make(map[label.Key]float64, len(recs))
		for _, rec := range recs {
			durs[label.KeyOf(rec)] = sim.ToSeconds(rec.Duration()) * 1e3
		}
		series := make([]float64, len(keys))
		for i, k := range keys {
			series[i] = durs[k] // 0 when the run never reached this op
		}
		r.Times = append(r.Times, stats.MovingAverage(series, cfg.Smooth))
	}
}

// Table lays out op index, kind, and one latency column per run. The text
// adds each series' mean latency and how many ops it slowed at least 2x or
// left under 1.2x of baseline (non-uniform impact is the paper's point).
func (r *Figure1Result) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Figure 1(%s): %d ops from the baseline window, smoothed latency", r.Panel, len(r.Kinds)),
		Columns: []Column{{Name: "op"}, {Name: "kind"}},
	}
	for _, l := range r.Labels {
		t.Columns = append(t.Columns, Column{strings.ReplaceAll(l, " ", "_") + "_ms", "%.4f"})
	}
	for i, kind := range r.Kinds {
		row := []any{i, kind}
		for s := range r.Times {
			row = append(row, r.Times[s][i])
		}
		t.Rows = append(t.Rows, row)
	}
	baseSeries := r.Times[0]
	for s, lbl := range r.Labels {
		series := r.Times[s]
		slowed, unaffected := 0, 0
		for i := range series {
			if baseSeries[i] > 0 {
				ratio := series[i] / baseSeries[i]
				if ratio >= 2 {
					slowed++
				} else if ratio < 1.2 {
					unaffected++
				}
			}
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%s: mean %.3f ms, ops>=2x %d, ops<1.2x %d",
			lbl, r.MeanLatency(s), slowed, unaffected))
	}
	return t
}

// MeanLatency returns a series' mean op latency in ms.
func (r *Figure1Result) MeanLatency(series int) float64 {
	return stats.Mean(r.Times[series])
}

// SVG renders the smoothed per-op latency series.
func (r *Figure1Result) SVG() string {
	series := make([]plot.Series, len(r.Labels))
	for i, l := range r.Labels {
		series[i] = plot.Series{Name: l, Ys: r.Times[i]}
	}
	return plot.LineChart(fmt.Sprintf("Figure 1(%s): Enzo per-operation I/O time", r.Panel),
		"operation index (baseline order)", "latency (ms, smoothed)", series, 860, 420)
}
