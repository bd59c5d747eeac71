package experiments

import (
	"context"
	"fmt"

	"quanterference/internal/core"
	"quanterference/internal/fault"
	"quanterference/internal/forecast"
	"quanterference/internal/hw"
	"quanterference/internal/mitigate"
	"quanterference/internal/ml"
	"quanterference/internal/sim"
	"quanterference/internal/workload"
	"quanterference/internal/workload/io500"
)

// MitigationConfig tunes the policy × fault × workload scenario study: every
// mitigation policy is run against every fault episode and interference mix,
// and compared with a no-action baseline on the same cell.
//
// The study runs with its owners' defaults: the forecaster's history and
// horizons (forecast.Config), the policies' lead and release hysteresis and
// the controller's throttle rate (mitigate), the burst buffers' size and
// rates (bb), and the collection window and cap for both training and every
// measured cell.
type MitigationConfig struct {
	// Scale trims the interference workloads (default 1.0). The protected
	// target is time-sized and NOT scaled — see mitigationTarget.
	Scale Scale
	// Reps repeats the training sweep with rotated OST placement (default 2).
	Reps int
	// Epochs trains the classifier and every forecast head (default 40).
	Epochs int
	Seed   int64
}

func (c *MitigationConfig) applyDefaults() {
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

// MitigationCell is one (fault, mix, policy) measurement. Slowdowns are
// against the target running alone under the SAME fault episode, so a cell
// charges the policy only for interference damage, not for the fault itself.
type MitigationCell struct {
	Fault  string
	Mix    string
	Policy string
	// AloneDuration is the fault-matched no-interference reference;
	// TargetDuration the protected app's completion in this cell.
	AloneDuration  sim.Time
	TargetDuration sim.Time
	// Slowdown is TargetDuration/AloneDuration; Avoided is the no-action
	// cell's slowdown minus this cell's — the end-to-end win (0 for the
	// "none" rows by construction).
	Slowdown float64
	Avoided  float64
	// InterferenceMB is the background workloads' goodput while the target
	// ran; CostPct how much of the no-action cell's volume the policy cost
	// them.
	InterferenceMB float64
	CostPct        float64
	// Engagements, ThrottledWindows, and DeferredMB summarize the
	// controller's actuation (zero on "none" and "static" rows). On a
	// "burst-buffer" row DeferredMB is instead the protected megabytes still
	// in the node buffers, not yet on the PFS, when the target finished.
	Engagements      int
	ThrottledWindows int
	DeferredMB       float64
}

// MitigationResult is the full scenario matrix, cells ordered fault-major,
// then mix, then policy ("none" first).
type MitigationResult struct {
	Faults   []string
	Mixes    []string
	Policies []string
	Cells    []MitigationCell
	// FrameworkDigest and ForecasterDigest pin the trained weights both
	// studies' decisions flow from — the determinism anchor of the golden
	// CSV (same seed, same digests, same cells, bit for bit).
	FrameworkDigest  string
	ForecasterDigest string
}

// Cell returns the (fault, mix, policy) measurement, or nil.
func (r *MitigationResult) Cell(fault, mix, policy string) *MitigationCell {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Fault == fault && c.Mix == mix && c.Policy == policy {
			return c
		}
	}
	return nil
}

// ProactiveMatchesReactive reports whether the forecast-driven proactive
// policy achieves at least the reactive policy's slowdown-avoided on at
// least one fault×mix cell — the study's acceptance bar (proactive engages
// no later than reactive by construction, so this holds unless forecasts
// are actively harmful).
func (r *MitigationResult) ProactiveMatchesReactive() bool {
	for _, f := range r.Faults {
		for _, m := range r.Mixes {
			pro, rea := r.Cell(f, m, "proactive"), r.Cell(f, m, "reactive")
			if pro != nil && rea != nil && pro.Avoided >= rea.Avoided {
				return true
			}
		}
	}
	return false
}

// mitigationTarget is the protected application: a time-sized sequential
// write spanning ~15-20 unimpeded windows. Like the lead-time study's
// targets it is deliberately NOT scaled by cfg.Scale — the simulator runs in
// virtual time, so a fixed-size target keeps smoke-scale runs long enough
// for the forecaster history to warm up and for mid-run interference
// arrivals to land while the target still runs.
func mitigationTarget() core.TargetSpec {
	return core.TargetSpec{
		Gen: io500.New(io500.IorEasyWrite, io500.Params{
			Dir: "/protected", Ranks: 4, EasyFileBytes: 2 << 30}),
		Nodes: targetNodes,
		Ranks: 4,
	}
}

// mitigationFaults are the fault episodes under study: none, a fail-slow
// disk under the protected app's stripes, and a metadata latency storm. All
// episodes open after the interference arrival so runs degrade in stages —
// the transition structure the forecaster was trained on.
func mitigationFaults() []struct {
	Name  string
	Specs []fault.Spec
} {
	return []struct {
		Name  string
		Specs []fault.Spec
	}{
		{"healthy", nil},
		{"disk-slow", []fault.Spec{{
			Kind: fault.DiskSlow, Target: "ost0",
			Start: 8 * sim.Second, Duration: 20 * sim.Second, Severity: 3,
		}}},
		{"mds-storm", []fault.Spec{{
			Kind: fault.MDSStorm, Target: "mdt",
			Start: 8 * sim.Second, Duration: 20 * sim.Second, Severity: 4,
		}}},
	}
}

// mitigationMix is one interference workload mix: n looping instances of an
// IO500 task across the interference nodes.
type mitigationMix struct {
	Name      string
	Task      io500.Task
	Instances int
	Ranks     int
}

func mitigationMixes() []mitigationMix {
	return []mitigationMix{
		{"read-burst", io500.IorEasyRead, 2, 6},
		{"write-burst", io500.IorEasyWrite, 2, 6},
		{"meta-storm", io500.MdtHardWrite, 2, 6},
	}
}

// mitigationArrival delays the interference start so every run opens clean:
// the forecaster sees the transition coming instead of starting mid-storm.
const mitigationArrival = 6 * sim.Second

// mitigationPolicies is the matrix's policy axis, "none" baseline first.
// The last two act without the predictor: "static" caps every interference
// node at mitigate.ThrottleBps from t = 0, and "burst-buffer" runs on the
// burst-buffer profile and writes the target through its node-local buffers
// (refs [11,12]).
var mitigationPolicies = []string{"none", "reactive", "proactive", "defer", "static", "burst-buffer"}

// newMitigationPolicy maps a policy-axis name to its constructor.
var newMitigationPolicy = map[string]func() *mitigate.Policy{
	"reactive":  mitigate.NewReactiveThrottle,
	"proactive": mitigate.NewProactiveThrottle,
	"defer":     mitigate.NewDeferBurst,
}

// mitigationRun measures one cell: the protected target against one fault
// episode and (optionally) one interference mix, under one policy ("" or
// "none" runs unprotected). Everything — cluster assembly, delayed arrival,
// fault schedule, controller decisions — is deterministic, so the cell is a
// pure function of (cfg, trained weights).
func mitigationRun(cfg MitigationConfig, fw *core.Framework, fc *forecast.Forecaster,
	specs []fault.Spec, mix *mitigationMix, policyName string) MitigationCell {

	profile := hw.PaperProfile()
	if policyName == "burst-buffer" {
		profile = hw.BurstBufferProfile()
	}
	cl := core.NewCluster(profile)
	if err := cl.InjectFaults(specs); err != nil {
		panic(fmt.Sprintf("experiments: mitigation faults: %v", err))
	}

	interfBytes := new(int64)
	targetDone := new(sim.Time)
	var stops []func()

	var ctrl *mitigate.Controller
	var buffered int64 // protected bytes still in the buffers at completion
	spec := mitigationTarget()
	target := &workload.Runner{
		FS: cl.FS, Name: "protected", Nodes: spec.Nodes, Ranks: spec.Ranks, Gen: spec.Gen,
		OnRecord: func(rec workload.Record) {
			if ctrl != nil {
				ctrl.Record(rec)
			}
		},
		OnDone: func() {
			*targetDone = cl.Eng.Now()
			if cl.BB != nil {
				buffered = cl.BB.Used()
			}
			for _, s := range stops {
				s()
			}
			// The protection job is over: detach the controller so the
			// interfering workloads run free (and deferred work resumes)
			// once the target no longer needs shielding.
			if ctrl != nil {
				ctrl.Stop()
			}
		},
	}

	var interfRunners []*workload.Runner
	if mix != nil {
		p := io500Params(cfg.Scale)
		for i := 0; i < mix.Instances; i++ {
			pi := p
			pi.Dir = fmt.Sprintf("/mit-%s%d", mix.Name, i)
			pi.Ranks = mix.Ranks
			r := &workload.Runner{
				FS: cl.FS, Name: fmt.Sprintf("%s%d", mix.Name, i),
				Nodes: interferenceNodes, Ranks: mix.Ranks,
				Gen: io500.New(mix.Task, pi), Loop: true,
				OnRecord: func(rec workload.Record) {
					if *targetDone == 0 {
						*interfBytes += rec.Op.Size
					}
				},
			}
			interfRunners = append(interfRunners, r)
			stops = append(stops, r.Stop)
		}
	}

	switch policyName {
	case "", "none":
	case "static":
		for _, node := range interferenceNodes {
			cl.FS.Client(node).SetRateLimit(mitigate.ThrottleBps)
		}
	case "burst-buffer":
		target.WriteViaFor = cl.BB.Route
	default:
		var victims []mitigate.Victim
		if policyName == "defer" {
			for _, r := range interfRunners {
				victims = append(victims, mitigate.Victim{Runner: r})
			}
		} else {
			for _, node := range interferenceNodes {
				victims = append(victims, mitigate.Victim{Client: cl.FS.Client(node)})
			}
		}
		// The reactive policy ignores forecasts, so it runs without one.
		var forecaster *forecast.Forecaster
		if policyName != "reactive" {
			forecaster = fc
		}
		ctrl = mitigate.NewController(cl, fw, victims, collectWindow,
			newMitigationPolicy[policyName](), forecaster)
	}

	// Interference arrives mid-stream; the target starts immediately.
	for _, r := range interfRunners {
		r := r
		cl.Eng.Schedule(mitigationArrival, r.Start)
	}
	target.Start()
	cl.Eng.RunUntil(collectMaxTime)

	cell := MitigationCell{
		Policy:         policyName,
		TargetDuration: *targetDone,
		InterferenceMB: float64(*interfBytes) / 1e6,
		DeferredMB:     float64(buffered) / 1e6,
	}
	if cell.TargetDuration == 0 {
		cell.TargetDuration = collectMaxTime // did not finish; charge the cap
	}
	if ctrl != nil {
		ctrl.Stop()
		cell.Engagements = ctrl.Engagements()
		cell.ThrottledWindows = ctrl.ThrottledWindows()
		cell.DeferredMB = float64(ctrl.BytesDeferred()) / 1e6
	}
	return cell
}

// mitigationTrain collects the protected workload's labelled window stream
// (the lead-time study's delayed-arrival sweep, so runs transition
// mid-stream) and trains the classifier plus the forecaster feeding the
// proactive policies.
func mitigationTrain(cfg MitigationConfig) (*core.Framework, *forecast.Forecaster) {
	dc := DatasetConfig{Scale: cfg.Scale, Reps: cfg.Reps, Seed: cfg.Seed}
	dc.applyDefaults()
	ds := collectFor(dc, "protected", mitigationTarget(), leadtimeSweep.variants(cfg.Scale))

	fw, _, err := core.TrainFrameworkE(ds, core.FrameworkConfig{
		Seed:  cfg.Seed,
		Train: ml.TrainConfig{Epochs: cfg.Epochs, Seed: cfg.Seed},
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: mitigation classifier: %v", err))
	}
	fc, _, err := core.TrainForecasterCtx(context.Background(), ds, core.ForecasterConfig{
		Train: ml.TrainConfig{Epochs: cfg.Epochs, Seed: cfg.Seed},
		Seed:  cfg.Seed,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: mitigation forecaster: %v", err))
	}
	return fw, fc
}

// MitigationStudy runs the actuation-loop experiment end to end: train the
// classifier and forecaster on the protected workload, then sweep the
// policy × fault × workload matrix, measuring each cell against the
// no-action baseline (slowdown avoided) and against the interfering
// workloads' free-running volume (throughput cost). Fully deterministic:
// same config, same CSV, bit for bit.
func MitigationStudy(cfg MitigationConfig) *MitigationResult {
	cfg.applyDefaults()
	fw, fc := mitigationTrain(cfg)

	faults := mitigationFaults()
	mixes := mitigationMixes()
	res := &MitigationResult{
		Policies:         mitigationPolicies,
		FrameworkDigest:  ml.WeightsDigest(fw.ExportWeights()),
		ForecasterDigest: ml.WeightsDigest(fc.ExportWeights()),
	}
	for _, m := range mixes {
		res.Mixes = append(res.Mixes, m.Name)
	}

	for _, f := range faults {
		res.Faults = append(res.Faults, f.Name)
		// Fault-matched reference: the target alone under this episode.
		alone := mitigationRun(cfg, fw, fc, f.Specs, nil, "")
		for _, m := range mixes {
			var none MitigationCell
			for _, policy := range mitigationPolicies {
				cell := mitigationRun(cfg, fw, fc, f.Specs, &m, policy)
				cell.Fault, cell.Mix = f.Name, m.Name
				cell.AloneDuration = alone.TargetDuration
				cell.Slowdown = float64(cell.TargetDuration) / float64(alone.TargetDuration)
				if policy == "none" {
					none = cell
				} else {
					cell.Avoided = none.Slowdown - cell.Slowdown
					if none.InterferenceMB > 0 {
						cell.CostPct = 100 * (none.InterferenceMB - cell.InterferenceMB) / none.InterferenceMB
					}
				}
				res.Cells = append(res.Cells, cell)
			}
		}
	}
	return res
}

// Table lays out one row per cell, then the weight-digest pins.
func (r *MitigationResult) Table() *Table {
	t := &Table{
		Title: "Mitigation policy × fault × workload study",
		Columns: []Column{{Name: "fault"}, {Name: "mix"}, {Name: "policy"},
			{"alone_s", "%.3f"}, {"target_s", "%.3f"}, {"slowdown", "%.4f"}, {"avoided", "%+.4f"},
			{"interference_mb", "%.1f"}, {"cost_pct", "%.1f"}, {Name: "engagements"},
			{Name: "windows_throttled"}, {"deferred_mb", "%.1f"}},
		Notes: []string{"(alone_s: the target alone under the same fault; avoided: no-action\n" +
			" slowdown minus this policy's; cost_pct: interference volume the policy cost\n" +
			" the background workloads vs running free; deferred_mb: held interference\n" +
			" ops, or on burst-buffer rows the protected data still in the node buffers\n" +
			" when the target finished)"},
	}
	for _, c := range r.Cells {
		t.Rows = append(t.Rows, []any{c.Fault, c.Mix, c.Policy,
			sim.ToSeconds(c.AloneDuration), sim.ToSeconds(c.TargetDuration), c.Slowdown, c.Avoided,
			c.InterferenceMB, c.CostPct, c.Engagements, c.ThrottledWindows, c.DeferredMB})
	}
	t.Rows = append(t.Rows,
		[]any{"digest", "framework", r.FrameworkDigest},
		[]any{"digest", "forecaster", r.ForecasterDigest})
	return t
}
