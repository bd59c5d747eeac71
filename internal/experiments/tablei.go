package experiments

import (
	"fmt"

	"quanterference/internal/core"
	"quanterference/internal/hw"
	"quanterference/internal/par"
	"quanterference/internal/plot"
	"quanterference/internal/sim"
	"quanterference/internal/workload/io500"
)

// TableIConfig controls the Table I reproduction.
type TableIConfig struct {
	// Scale shrinks workload volumes (default 1.0).
	Scale Scale
	// Instances is the number of concurrent interfering runs (the paper
	// keeps 3 active).
	Instances int
	// RanksPerInstance sizes each interfering run (default 6).
	RanksPerInstance int
	// TargetRanks sizes the measured task (default 4).
	TargetRanks int
	// MaxTime caps each run (default 300 s).
	MaxTime sim.Time
	// Profile selects the hardware profile every run simulates (a name from
	// hw.Names; default "" = the paper testbed). Unknown names panic, like
	// every other misconfiguration in this package.
	Profile string
	// Tasks restricts the matrix to a task subset (default all seven) — the
	// transfer study uses a trimmed matrix per profile.
	Tasks []io500.Task
}

func (c *TableIConfig) applyDefaults() {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Instances == 0 {
		c.Instances = 3
	}
	if c.RanksPerInstance == 0 {
		c.RanksPerInstance = 6
	}
	if c.TargetRanks == 0 {
		c.TargetRanks = 4
	}
	if c.MaxTime == 0 {
		c.MaxTime = 300 * sim.Second
	}
}

// TableIResult is the slowdown matrix.
type TableIResult struct {
	Tasks      []string
	Standalone []sim.Time  // solo duration per task
	Slowdown   [][]float64 // [target task][interference task]
}

// TableI reproduces the paper's Table I: each of the seven IO500 tasks run
// standalone and against each task as looping background interference; every
// cell is duration(interfered) / duration(standalone).
func TableI(cfg TableIConfig) *TableIResult {
	cfg.applyDefaults()
	profile := resolveProfile(cfg.Profile)
	tasks := cfg.Tasks
	if len(tasks) == 0 {
		tasks = io500.AllTasks()
	}
	res := &TableIResult{
		Standalone: make([]sim.Time, len(tasks)),
		Slowdown:   make([][]float64, len(tasks)),
	}
	targetParams := io500Params(cfg.Scale)
	targetParams.Dir, targetParams.Ranks = "/target", cfg.TargetRanks
	for _, t := range tasks {
		res.Tasks = append(res.Tasks, t.String())
	}
	// Every cell is an independent simulation: 7 standalone runs plus a
	// 7x7 grid, fanned out across cores.
	par.Map(len(tasks), func(i int) {
		base := mustRun(targetScenario(tasks[i], targetParams, nil, cfg.MaxTime, profile))
		if !base.Finished {
			panic(fmt.Sprintf("experiments: standalone %s exceeded MaxTime", tasks[i]))
		}
		res.Standalone[i] = base.Duration
		res.Slowdown[i] = make([]float64, len(tasks))
	})
	n := len(tasks)
	par.Map(n*n, func(k int) {
		i, j := k/n, k%n
		interf := tasks[j]
		specs := IO500Instances(interf, cfg.Instances, cfg.RanksPerInstance,
			io500Params(cfg.Scale), fmt.Sprintf("/bg-%s", interf))
		run := mustRun(targetScenario(tasks[i], targetParams, specs, cfg.MaxTime, profile))
		res.Slowdown[i][j] = float64(run.Duration) / float64(res.Standalone[i])
	})
	return res
}

func targetScenario(task io500.Task, p io500.Params, interf []core.InterferenceSpec, maxTime sim.Time, profile hw.Profile) core.Scenario {
	return core.Scenario{
		Hardware: profile,
		Target: core.TargetSpec{
			Gen:   io500.New(task, p),
			Nodes: targetNodes,
			Ranks: p.Ranks,
		},
		Interference: interf,
		MaxTime:      maxTime,
	}
}

// resolveProfile maps a profile name to its hw.Profile, panicking on unknown
// names ("" is the paper profile).
func resolveProfile(name string) hw.Profile {
	if name == "" {
		return hw.PaperProfile()
	}
	p, err := hw.ByName(name)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return p
}

// Table lays the matrix out like the paper's Table I: one row per target
// task, one column per interference task, then the task's standalone time.
func (r *TableIResult) Table() *Table {
	t := &Table{
		Title:   "Table I: slowdown of each task (row) under each interference task (column)",
		Columns: []Column{{Name: "task"}},
	}
	for _, task := range r.Tasks {
		t.Columns = append(t.Columns, Column{task, "%.4f"})
	}
	t.Columns = append(t.Columns, Column{"standalone_s", "%.4f"})
	for i, task := range r.Tasks {
		row := []any{task}
		for _, v := range r.Slowdown[i] {
			row = append(row, v)
		}
		t.Rows = append(t.Rows, append(row, sim.ToSeconds(r.Standalone[i])))
	}
	return t
}

// MaxCell returns the most impacted (row, col, value) — the paper highlights
// these per row.
func (r *TableIResult) MaxCell() (task, interference string, slowdown float64) {
	bi, bj := 0, 0
	for i := range r.Slowdown {
		for j := range r.Slowdown[i] {
			if r.Slowdown[i][j] > r.Slowdown[bi][bj] {
				bi, bj = i, j
			}
		}
	}
	return r.Tasks[bi], r.Tasks[bj], r.Slowdown[bi][bj]
}

// SVG renders the matrix as a log-shaded heatmap.
func (r *TableIResult) SVG() string {
	return plot.Heatmap("Table I: slowdown under cross-task interference",
		r.Tasks, r.Tasks, r.Slowdown, 980, 420)
}
