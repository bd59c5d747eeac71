package experiments

import (
	"fmt"

	"quanterference/internal/core"
	"quanterference/internal/sim"
	"quanterference/internal/workload"
	"quanterference/internal/workload/io500"
)

// PhaseStudyConfig controls the multi-phase slowdown study.
type PhaseStudyConfig struct {
	Scale     Scale
	Instances int // interference instances, default 3
}

func (c *PhaseStudyConfig) applyDefaults() {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Instances == 0 {
		c.Instances = 3
	}
}

// phaseInterference is the single background task every phase runs under:
// ior-hard-write, the paper's §II-A example.
const phaseInterference = io500.IorHardWrite

// phaseRanks sizes the multi-phase target.
const phaseRanks = 2

// PhaseStudyResult reports per-phase slowdown of one multi-phase run.
type PhaseStudyResult struct {
	Interference string
	Phases       []string
	// BaselineTime and ContendedTime are per-phase I/O time sums.
	BaselineTime  []sim.Time
	ContendedTime []sim.Time
}

// Slowdown returns phase i's slowdown.
func (r *PhaseStudyResult) Slowdown(i int) float64 {
	if r.BaselineTime[i] == 0 {
		return 1
	}
	return float64(r.ContendedTime[i]) / float64(r.BaselineTime[i])
}

// Spread returns min and max per-phase slowdown — the paper's point is that
// they differ wildly under one interference type.
func (r *PhaseStudyResult) Spread() (lo, hi float64) {
	lo, hi = r.Slowdown(0), r.Slowdown(0)
	for i := range r.Phases {
		s := r.Slowdown(i)
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	return lo, hi
}

// Table lays out one row per phase; the text adds the spread.
func (r *PhaseStudyResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Phase study: IO500 task sequence under %s interference", r.Interference),
		Columns: []Column{{Name: "phase"}, {"alone_s", "%.4f"}, {"contended_s", "%.4f"},
			{"slowdown", "%.4f"}},
	}
	for i, p := range r.Phases {
		t.Rows = append(t.Rows, []any{p, sim.ToSeconds(r.BaselineTime[i]),
			sim.ToSeconds(r.ContendedTime[i]), r.Slowdown(i)})
	}
	lo, hi := r.Spread()
	t.Notes = []string{fmt.Sprintf("per-phase slowdown spans %.2fx .. %.2fx under one interference type", lo, hi)}
	return t
}

// PhaseStudy reproduces §II-A's closing observation: one application that
// chronologically runs the seven IO500 tasks experiences per-phase slowdowns
// spanning more than an order of magnitude under a single interference type
// (the paper quotes 1.0x to 40.9x under ior-hard-write).
func PhaseStudy(cfg PhaseStudyConfig) *PhaseStudyResult {
	cfg.applyDefaults()
	mk := func() *workload.Sequence {
		var gens []workload.Generator
		for _, task := range io500.AllTasks() {
			p := io500Params(cfg.Scale)
			p.Dir, p.Ranks = "/phase-"+task.String(), phaseRanks
			gens = append(gens, io500.New(task, p))
		}
		return workload.NewSequence("io500-sequence", gens...)
	}

	// Runs are capped by the scenario's default MaxTime.
	run := func(seq *workload.Sequence, interf []core.InterferenceSpec) []sim.Time {
		res := mustRun(core.Scenario{
			Target:       core.TargetSpec{Gen: seq, Nodes: targetNodes, Ranks: phaseRanks},
			Interference: interf,
		})
		perPhase := make([]sim.Time, seq.Phases())
		for _, rec := range res.Records {
			perPhase[seq.PhaseOf(rec.Rank, rec.Seq)] += rec.Duration()
		}
		return perPhase
	}

	baseSeq := mk()
	base := run(baseSeq, nil)
	contSeq := mk()
	specs := IO500Instances(phaseInterference, cfg.Instances, 6,
		io500Params(cfg.Scale), "/phasebg")
	contended := run(contSeq, specs)

	res := &PhaseStudyResult{
		Interference:  phaseInterference.String(),
		BaselineTime:  base,
		ContendedTime: contended,
	}
	for _, t := range io500.AllTasks() {
		res.Phases = append(res.Phases, t.String())
	}
	return res
}
