package experiments

import (
	"fmt"

	"quanterference/internal/core"
	"quanterference/internal/dataset"
	"quanterference/internal/fault"
	"quanterference/internal/label"
	"quanterference/internal/sim"
	"quanterference/internal/workload"
	"quanterference/internal/workload/apps"
	"quanterference/internal/workload/dlio"
	"quanterference/internal/workload/io500"
)

// DatasetConfig controls §III-D training-data generation for the model
// experiments (Figures 3-5).
type DatasetConfig struct {
	Scale Scale
	// Window is the monitor aggregation window (default 1 s).
	Window sim.Time
	// Bins default to the paper's binary >=2x split; Figure 4 rebins the
	// stored degradations to the 3-class setting afterwards.
	Bins label.Bins
	// MaxTime caps each collection run (default 240 s).
	MaxTime sim.Time
	// Reps repeats the whole sweep with rotated OST placement (default 3),
	// multiplying the dataset and exposing the layout variance the kernel
	// model is designed for.
	Reps int
	Seed int64
	// Faults injects the same degraded-mode episodes into every collection
	// run (baseline and variants alike), producing training data from a
	// cluster that is sick in a known, reproducible way. RPCTimeout arms the
	// clients' retry path alongside (0 keeps the healthy-cluster model).
	Faults     []fault.Spec
	RPCTimeout sim.Time
	// Report, when non-nil, accumulates per-variant completion accounting
	// across every collection of the dataset build: totals are summed and
	// skipped variants appended (their indices are per-collection).
	Report *core.CollectReport
	// Profile selects the hardware profile every collection run simulates
	// (a name from hw.Names; default "" = the paper testbed). The dataset
	// header records it. Unknown names panic.
	Profile string
}

// collectWindow and collectMaxTime are the monitor window and per-run cap of
// every dataset collection that does not set its own; the mitigation study
// measures its cells under the same two.
const (
	collectWindow  = sim.Second
	collectMaxTime = 240 * sim.Second
)

func (c *DatasetConfig) applyDefaults() {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Window == 0 {
		c.Window = collectWindow
	}
	if c.Bins.Thresholds == nil {
		c.Bins = label.BinaryBins()
	}
	if c.MaxTime == 0 {
		c.MaxTime = collectMaxTime
	}
	if c.Reps == 0 {
		c.Reps = 3
	}
}

// sweepEntry is one interference configuration: instances looping copies of
// task with ranks ranks each, arriving startAt into the run (0 = together
// with the target).
type sweepEntry struct {
	task             io500.Task
	instances, ranks int
	startAt          sim.Time
}

// sweep is a set of interference configurations a target is re-run against;
// entry i's instances work under <dir><i>.
type sweep struct {
	dir     string
	entries []sweepEntry
}

// variants builds one variant per entry, named <task>-x<instances>r<ranks>,
// plus -d<secs> for a delayed arrival.
func (sw sweep) variants(s Scale) []core.Variant {
	out := make([]core.Variant, 0, len(sw.entries))
	for i, e := range sw.entries {
		specs := IO500Instances(e.task, e.instances, e.ranks,
			io500Params(s), fmt.Sprintf("%s%d", sw.dir, i))
		name := fmt.Sprintf("%s-x%dr%d", e.task, e.instances, e.ranks)
		if e.startAt > 0 {
			for j := range specs {
				specs[j].StartAt = e.startAt
			}
			name = fmt.Sprintf("%s-d%s", name, fmtSeconds(e.startAt))
		}
		out = append(out, core.Variant{Name: name, Interference: specs})
	}
	return out
}

// standardSweep is the interference every IO500 and DLIO target is re-run
// against: a spread of pattern types and intensities, covering the
// contention classes of Table I.
var standardSweep = sweep{dir: "/sweep", entries: []sweepEntry{
	{task: io500.IorEasyRead, instances: 1, ranks: 2},
	{task: io500.IorEasyRead, instances: 1, ranks: 4},
	{task: io500.IorEasyRead, instances: 2, ranks: 4},
	{task: io500.IorEasyRead, instances: 3, ranks: 6},
	{task: io500.IorEasyWrite, instances: 1, ranks: 2},
	{task: io500.IorEasyWrite, instances: 1, ranks: 4},
	{task: io500.IorEasyWrite, instances: 3, ranks: 6},
	{task: io500.IorHardWrite, instances: 1, ranks: 4},
	{task: io500.IorHardWrite, instances: 2, ranks: 6},
	{task: io500.MdtEasyWrite, instances: 2, ranks: 6},
	{task: io500.MdtHardWrite, instances: 1, ranks: 4},
	{task: io500.MdtHardWrite, instances: 2, ranks: 6},
	{task: io500.MdtHardRead, instances: 2, ranks: 6},
}}

// InterferenceSweep builds the standard sweep's variants at scale s.
func InterferenceSweep(s Scale) []core.Variant {
	return standardSweep.variants(s)
}

// collectFor runs the collection pipeline for one target generator,
// repeating the sweep Reps times with the OST allocator rotated so the
// target lands on different storage targets each repetition. opts reach
// every collection (a test instruments one with core.WithSink).
func collectFor(cfg DatasetConfig, name string, target core.TargetSpec, variants []core.Variant, opts ...core.Option) *dataset.Dataset {
	profile := resolveProfile(cfg.Profile)
	var all *dataset.Dataset
	for rep := 0; rep < cfg.Reps; rep++ {
		base := core.Scenario{
			Hardware:   profile,
			Target:     target,
			WindowSize: cfg.Window,
			MaxTime:    cfg.MaxTime,
			OSTSkew:    rep,
			Faults:     cfg.Faults,
			RPCTimeout: cfg.RPCTimeout,
		}
		var report core.CollectReport
		ds, err := core.CollectDatasetE(base, variants, core.CollectorConfig{
			Bins:            cfg.Bins,
			IncludeBaseline: rep == 0,
		}, append([]core.Option{core.WithCollectReport(&report)}, opts...)...)
		if err != nil {
			panic(err)
		}
		if cfg.Report != nil {
			cfg.Report.Variants += report.Variants
			cfg.Report.Completed += report.Completed
			cfg.Report.BaselineSamples += report.BaselineSamples
			cfg.Report.VariantSamples += report.VariantSamples
			cfg.Report.Skipped = append(cfg.Report.Skipped, report.Skipped...)
		}
		for _, s := range ds.Samples {
			s.Workload = name
			s.Run = fmt.Sprintf("%s#%d", s.Run, rep)
		}
		if all == nil {
			all = ds
		} else {
			all.Merge(ds)
		}
	}
	return all
}

// datasetRanks is the rank count of every dataset build's target.
const datasetRanks = 4

// target is one application a dataset build collects: its generator, run
// with datasetRanks ranks on the target nodes, and the workload name its
// samples carry.
type target struct {
	name string
	gen  workload.Generator
}

// io500Targets makes one target per task, each working under dir<task>.
func io500Targets(dir string, p io500.Params, tasks ...io500.Task) []target {
	out := make([]target, len(tasks))
	for i, task := range tasks {
		p.Dir, p.Ranks = dir+task.String(), datasetRanks
		out[i] = target{name: task.String(), gen: io500.New(task, p)}
	}
	return out
}

// collectTargets collects every target against the same variants (see
// collectFor) and merges the results in target order.
func collectTargets(cfg DatasetConfig, targets []target, variants []core.Variant, opts ...core.Option) *dataset.Dataset {
	var all *dataset.Dataset
	for _, t := range targets {
		spec := core.TargetSpec{Gen: t.gen, Nodes: targetNodes, Ranks: datasetRanks}
		ds := collectFor(cfg, t.name, spec, variants, opts...)
		if all == nil {
			all = ds
		} else {
			all.Merge(ds)
		}
	}
	return all
}

// IO500Dataset collects labelled windows with each of the seven IO500 tasks
// as the target application, against the full interference sweep — the
// paper's first training dataset.
func IO500Dataset(cfg DatasetConfig) *dataset.Dataset {
	cfg.applyDefaults()
	targets := io500Targets("/tgt-", io500Params(cfg.Scale), io500.AllTasks()...)
	return collectTargets(cfg, targets, InterferenceSweep(cfg.Scale))
}

// DLIODataset collects labelled windows with the Unet3D and BERT loader
// emulations as targets — the paper's second dataset. The loaders' compute
// gaps give it the negative-heavy class balance the paper reports.
func DLIODataset(cfg DatasetConfig) *dataset.Dataset {
	cfg.applyDefaults()
	var targets []target
	for _, model := range []dlio.Model{dlio.Unet3D, dlio.BERT} {
		targets = append(targets, target{name: model.String(), gen: dlio.New(model, dlio.Params{
			Dir:         "/dlio-" + model.String(),
			Ranks:       datasetRanks,
			Samples:     cfg.Scale.Count(48),
			SampleBytes: cfg.Scale.Bytes(4 << 20),
			Epochs:      2,
			Steps:       cfg.Scale.Count(150),
			Seed:        cfg.Seed,
		})})
	}
	return collectTargets(cfg, targets, InterferenceSweep(cfg.Scale))
}

// AppLevels mirrors the paper's real-application collection: one baseline
// plus runs with increasing amounts of concurrent IO500 instances. Two extra
// configurations supply honest no-interference windows: a single one-rank
// reader (usually on OSTs the application never touches), and a moderate mix
// that only arrives mid-run, leaving the pre-arrival windows unimpacted.
func AppLevels(s Scale) []core.Variant {
	delayed := IO500Instances(io500.IorEasyWrite, 2, 6, io500Params(s), "/lvl-delay")
	for i := range delayed {
		delayed[i].StartAt = 4 * sim.Second
	}
	out := []core.Variant{
		{
			Name: "io500-level0",
			Interference: IO500Instances(io500.IorEasyRead, 1, 1,
				io500Params(s), "/lvl0-r"),
		},
		{Name: "io500-delayed", Interference: delayed},
	}
	for level := 1; level <= 3; level++ {
		var specs []core.InterferenceSpec
		specs = append(specs, IO500Instances(io500.IorEasyWrite, level, 6,
			io500Params(s), fmt.Sprintf("/lvl%d-w", level))...)
		specs = append(specs, IO500Instances(io500.IorEasyRead, level, 6,
			io500Params(s), fmt.Sprintf("/lvl%d-r", level))...)
		specs = append(specs, IO500Instances(io500.MdtEasyWrite, level, 6,
			io500Params(s), fmt.Sprintf("/lvl%d-m", level))...)
		out = append(out, core.Variant{
			Name:         fmt.Sprintf("io500-level%d", level),
			Interference: specs,
		})
	}
	return out
}

// AppDataset collects labelled windows for one real application. OpenPMD
// deliberately runs short (few cycles), reproducing the paper's small-sample
// caveat for its Figure 5 model.
func AppDataset(app apps.App, cfg DatasetConfig) *dataset.Dataset {
	cfg.applyDefaults()
	p := apps.Params{
		Dir:   "/app-" + app.String(),
		Ranks: datasetRanks,
		// Long enough that the delayed-interference variant's arrival
		// (t=4s) lands mid-run.
		Cycles:          20,
		CheckpointBytes: cfg.Scale.Bytes(8 << 20),
	}
	if app == OpenPMDApp {
		p.Cycles = 3
	}
	targets := []target{{name: app.String(), gen: apps.New(app, p)}}
	return collectTargets(cfg, targets, AppLevels(cfg.Scale))
}

// OpenPMDApp is re-exported for callers configuring the small-sample case.
const OpenPMDApp = apps.OpenPMD
