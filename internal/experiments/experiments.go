// Package experiments contains one driver per table and figure of the
// paper's evaluation, and per study built on it, each running the full
// pipeline on the simulated cluster:
//
//	Table I     — IO500 task slowdown matrix under cross-task interference.
//	Figure 1    — Enzo per-operation I/O times under varying interference
//	              levels (a) and types (b).
//	Table II    — the server-side metric catalogue, with live sampled values.
//	Figure 3    — binary interference prediction on IO500 (a) and DLIO (b).
//	Figure 4    — 3-class severity prediction on IO500.
//	Figure 5    — binary prediction on AMReX, Enzo, and OpenPMD.
//	Ablations   — kernel vs flat model, client/server feature groups, and
//	              window-size sensitivity (DESIGN.md design choices).
//	Phases      — per-phase slowdown of one multi-phase application (§II-A).
//	Robustness  — accuracy and F1 across training seeds.
//	Extensions  — the attention architecture and exact-slowdown regression.
//	Transfer    — cross-hardware-profile model transfer.
//	Lead time   — forecast accuracy against prediction horizon.
//	Mitigation  — policy × fault × workload actuation study.
//	Shadow      — the N-way champion/challenger gate on a live stream.
//
// Every result type lays its rows out once, as a Table, whose Render and
// CSV methods write the .txt and .csv panels cmd/figures emits.
package experiments

import (
	"fmt"

	"quanterference/internal/core"
	"quanterference/internal/dataset"
	"quanterference/internal/ml"
	"quanterference/internal/sim"
	"quanterference/internal/workload/io500"
)

// mustRun executes a scenario, panicking on scenario errors. The
// experiment drivers run inside par.Map workers where a panic is the
// established failure mode for impossible configurations — every scenario
// here is built from constants, so an error is a programming bug, not input.
func mustRun(s core.Scenario) *core.RunResult {
	res, err := core.RunE(s)
	if err != nil {
		panic(err)
	}
	return res
}

// mustTrain trains the framework, panicking on empty datasets or invalid
// configs for the same reason as mustRun.
func mustTrain(ds *dataset.Dataset, cfg core.FrameworkConfig) (*core.Framework, *ml.Confusion) {
	fw, cm, err := core.TrainFrameworkE(ds, cfg)
	if err != nil {
		panic(err)
	}
	return fw, cm
}

// Scale shrinks or grows every experiment's workload volume. 1.0 is the
// default used by cmd/figures; tests and benchmarks use smaller values.
type Scale float64

// bytes scales a byte volume, keeping at least one stripe unit.
func (s Scale) Bytes(b int64) int64 {
	v := int64(float64(b) * float64(s))
	if v < 1<<20 {
		v = 1 << 20
	}
	return v
}

// count scales an op count, keeping at least a handful.
func (s Scale) Count(n int) int {
	v := int(float64(n) * float64(s))
	if v < 8 {
		v = 8
	}
	return v
}

// interferenceNodes are the compute nodes hosting interference instances;
// targets run on c0 and c1.
var interferenceNodes = []string{"c2", "c3", "c4", "c5", "c6"}

// targetNodes host the measured application.
var targetNodes = []string{"c0", "c1"}

// IO500Instances builds n looping instances of an IO500 task, each with the
// given rank count, placed on the interference nodes — the analogue of the
// paper keeping "3 concurrent runs active" per node.
func IO500Instances(task io500.Task, n, ranks int, p io500.Params, dirPrefix string) []core.InterferenceSpec {
	var out []core.InterferenceSpec
	for i := 0; i < n; i++ {
		pi := p
		pi.Dir = fmt.Sprintf("%s/inst%d", dirPrefix, i)
		pi.Ranks = ranks
		out = append(out, core.InterferenceSpec{
			Gen:   io500.New(task, pi),
			Nodes: interferenceNodes,
			Ranks: ranks,
		})
	}
	return out
}

// io500Params are the standard scaled IO500 parameters targets and
// interference instances run with.
func io500Params(s Scale) io500.Params {
	return io500.Params{
		EasyFileBytes: s.Bytes(32 << 20),
		HardOps:       s.Count(300),
		MdtFiles:      s.Count(200),
	}
}

func fmtSeconds(t sim.Time) string {
	return fmt.Sprintf("%.2fs", sim.ToSeconds(t))
}
