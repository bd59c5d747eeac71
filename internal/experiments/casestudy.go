package experiments

import (
	"fmt"
	"strings"

	"quanterference/internal/bb"
	"quanterference/internal/core"
	"quanterference/internal/lustre"
	"quanterference/internal/mitigate"
	"quanterference/internal/ml"
	"quanterference/internal/sim"
	"quanterference/internal/workload"
	"quanterference/internal/workload/io500"
)

// CaseStudyConfig tunes the mitigation case study.
type CaseStudyConfig struct {
	Scale Scale
	// Epochs trains the predictor (default 40).
	Epochs int
	Seed   int64
}

func (c *CaseStudyConfig) applyDefaults() {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Epochs == 0 {
		c.Epochs = 40
	}
}

// CaseStudyMode is one policy under comparison.
type CaseStudyMode struct {
	Name string
	// TargetDuration is the protected application's completion time.
	TargetDuration sim.Time
	// InterferenceMB is how much data the background workloads moved
	// while the target ran (their cost of being throttled).
	InterferenceMB float64
	// Engagements counts throttle activations (predictive mode only).
	Engagements int
	// DrainDuration (burst-buffer mode) is when the absorbed burst had
	// fully drained to the PFS — the data-durability point, later than
	// the application-visible completion.
	DrainDuration sim.Time
}

// CaseStudyResult compares the three policies.
type CaseStudyResult struct {
	Baseline sim.Time // target alone
	Modes    []CaseStudyMode
}

// Render draws the comparison.
func (r *CaseStudyResult) Render() string {
	var b strings.Builder
	b.WriteString("Case study: prediction-driven interference mitigation\n")
	fmt.Fprintf(&b, "  target alone: %s\n", fmtSeconds(r.Baseline))
	fmt.Fprintf(&b, "  %-22s%14s%12s%18s%14s%14s\n",
		"policy", "target time", "slowdown", "interference MB/s", "engagements", "drain")
	for _, m := range r.Modes {
		rate := 0.0
		if m.TargetDuration > 0 {
			rate = m.InterferenceMB / sim.ToSeconds(m.TargetDuration)
		}
		drain := "-"
		if m.DrainDuration > 0 {
			drain = fmtSeconds(m.DrainDuration)
		}
		fmt.Fprintf(&b, "  %-22s%14s%11.2fx%18.1f%14d%14s\n",
			m.Name, fmtSeconds(m.TargetDuration),
			float64(m.TargetDuration)/float64(r.Baseline),
			rate, m.Engagements, drain)
	}
	b.WriteString("  (interference MB/s: background goodput while the target ran; drain:\n" +
		"   when the burst buffer finished writing the absorbed data to the PFS)\n")
	return b.String()
}

// CSV emits the comparison rows.
func (r *CaseStudyResult) CSV() string {
	var b strings.Builder
	b.WriteString("policy,target_s,slowdown,interference_mb,engagements,drain_s\n")
	for _, m := range r.Modes {
		fmt.Fprintf(&b, "%s,%.3f,%.3f,%.1f,%d,%.3f\n",
			m.Name, sim.ToSeconds(m.TargetDuration),
			float64(m.TargetDuration)/float64(r.Baseline),
			m.InterferenceMB, m.Engagements, sim.ToSeconds(m.DrainDuration))
	}
	return b.String()
}

// caseStudyTarget is the protected application.
func caseStudyTarget(s Scale) core.TargetSpec {
	return core.TargetSpec{
		Gen: io500.New(io500.IorEasyWrite, io500.Params{
			Dir: "/protected", Ranks: 2, EasyFileBytes: s.Bytes(64 << 20)}),
		Nodes: []string{"c0"},
		Ranks: 2,
	}
}

// CaseStudyMitigation trains the predictor on the protected workload, then
// compares three policies under identical read interference: no mitigation,
// prediction-driven throttling (engage on predicted >=2x, release after two
// clean windows), and static always-on throttling. The headline: predictive
// throttling recovers most of the target's performance while letting the
// background workloads run free whenever they do no harm.
func CaseStudyMitigation(cfg CaseStudyConfig) *CaseStudyResult {
	cfg.applyDefaults()

	// Train the predictor the paper's way: the protected workload against
	// an interference sweep.
	ds := collectFor(DatasetConfig{Scale: cfg.Scale, Seed: cfg.Seed, Reps: 2},
		"protected", caseStudyTarget(cfg.Scale), InterferenceSweep(cfg.Scale))
	fw, _ := mustTrain(ds, core.FrameworkConfig{
		Seed: cfg.Seed, Train: ml.TrainConfig{Epochs: cfg.Epochs, Seed: cfg.Seed},
	})

	res := &CaseStudyResult{}
	res.Baseline, _, _ = caseStudyRun(cfg, nil, false)

	for _, mode := range []string{"no mitigation", "predictive throttle", "static throttle", "burst buffer"} {
		var dur sim.Time
		var interfMB float64
		var engagements int
		switch mode {
		case "no mitigation":
			dur, interfMB, _ = caseStudyRun(cfg, nil, true)
		case "predictive throttle":
			dur, interfMB, engagements = caseStudyRunPredictive(cfg, fw)
		case "static throttle":
			dur, interfMB, _ = caseStudyRunStatic(cfg)
		case "burst buffer":
			var drain sim.Time
			dur, interfMB, drain = caseStudyRunBB(cfg)
			res.Modes = append(res.Modes, CaseStudyMode{
				Name: mode, TargetDuration: dur,
				InterferenceMB: interfMB, DrainDuration: drain,
			})
			continue
		}
		res.Modes = append(res.Modes, CaseStudyMode{
			Name: mode, TargetDuration: dur,
			InterferenceMB: interfMB, Engagements: engagements,
		})
	}
	return res
}

// interferenceNodesCS hosts the background workloads in the case study.
var interferenceNodesCS = []string{"c2", "c3", "c4"}

// caseStudySetup assembles the cluster, target, and (optionally) the
// interference runners, returning hooks to start and measure. The returned
// runner may be customized (e.g. WriteVia) before start() is called.
func caseStudySetup(cfg CaseStudyConfig, withInterference bool, onRecord func(workload.Record)) (
	cl *core.Cluster, start func(), interfBytes *int64, targetDone *sim.Time, target *workload.Runner) {

	cl = core.NewCluster(lustre.PaperTopology(), lustre.Config{})
	interfBytes = new(int64)
	targetDone = new(sim.Time)

	spec := caseStudyTarget(cfg.Scale)
	var stops []func()
	target = &workload.Runner{
		FS: cl.FS, Name: "protected", Nodes: spec.Nodes, Ranks: spec.Ranks, Gen: spec.Gen,
		OnRecord: onRecord,
		OnDone: func() {
			*targetDone = cl.Eng.Now()
			for _, s := range stops {
				s()
			}
		},
	}
	var interfRunners []*workload.Runner
	if withInterference {
		p := io500Params(cfg.Scale)
		for i := 0; i < 3; i++ {
			pi := p
			pi.Dir = fmt.Sprintf("/bg%d", i)
			pi.Ranks = 6
			r := &workload.Runner{
				FS: cl.FS, Name: fmt.Sprintf("bg%d", i),
				Nodes: interferenceNodesCS, Ranks: 6,
				Gen: io500.New(io500.IorEasyRead, pi), Loop: true,
				OnRecord: func(rec workload.Record) {
					if *targetDone == 0 && rec.Op.Kind == workload.Read {
						*interfBytes += rec.Op.Size
					}
				},
			}
			interfRunners = append(interfRunners, r)
			stops = append(stops, r.Stop)
		}
	}
	start = func() {
		for _, r := range interfRunners {
			r.Start()
		}
		target.Start()
	}
	return cl, start, interfBytes, targetDone, target
}

// caseStudyRun measures the target with optional unthrottled interference.
func caseStudyRun(cfg CaseStudyConfig, _ *core.Framework, withInterference bool) (sim.Time, float64, int) {
	cl, start, interfBytes, done, _ := caseStudySetup(cfg, withInterference, nil)
	start()
	cl.Eng.RunUntil(600 * sim.Second)
	return *done, float64(*interfBytes) / 1e6, 0
}

// caseStudyRunBB routes the protected workload's writes through a node-local
// burst buffer (references [11]/[12]'s mitigation class) — no throttling at
// all; the fast tier absorbs the burst.
func caseStudyRunBB(cfg CaseStudyConfig) (appDone sim.Time, interfMB float64, drainDone sim.Time) {
	cl, start, interfBytes, done, target := caseStudySetup(cfg, true, nil)
	buf := bb.Attach(cl.Eng, cl.FS.Client("c0"), bb.Config{
		Capacity: 2 * cfg.Scale.Bytes(64<<20),
	})
	target.WriteVia = buf.WriteFn()
	// Watch for the durability point: buffer idle after the app finished.
	var drained sim.Time
	var tick *sim.Ticker
	tick = sim.NewTicker(cl.Eng, 10*sim.Millisecond, func(now sim.Time) {
		if *done > 0 && buf.Idle() && drained == 0 {
			drained = now
			tick.Stop()
		}
	})
	start()
	cl.Eng.RunUntil(600 * sim.Second)
	tick.Stop()
	return *done, float64(*interfBytes) / 1e6, drained
}

// caseStudyRunStatic applies the controller's throttle rate to the
// interfering nodes from t=0, unconditionally.
func caseStudyRunStatic(cfg CaseStudyConfig) (sim.Time, float64, int) {
	cl, start, interfBytes, done, _ := caseStudySetup(cfg, true, nil)
	for _, node := range interferenceNodesCS {
		cl.FS.Client(node).SetRateLimit(mitigate.ThrottleBps)
	}
	start()
	cl.Eng.RunUntil(600 * sim.Second)
	return *done, float64(*interfBytes) / 1e6, 0
}

// caseStudyRunPredictive lets the controller decide per window.
func caseStudyRunPredictive(cfg CaseStudyConfig, fw *core.Framework) (sim.Time, float64, int) {
	var ctrl *mitigate.Controller
	cl, start, interfBytes, done, _ := caseStudySetup(cfg, true, func(rec workload.Record) {
		ctrl.Record(rec)
	})
	victims := make([]mitigate.Victim, 0, len(interferenceNodesCS))
	for _, node := range interferenceNodesCS {
		victims = append(victims, mitigate.Victim{Client: cl.FS.Client(node)})
	}
	ctrl = mitigate.NewController(cl, fw, victims, sim.Second, mitigate.NewReactiveThrottle(), nil)
	start()
	cl.Eng.RunUntil(600 * sim.Second)
	ctrl.Stop()
	return *done, float64(*interfBytes) / 1e6, ctrl.Engagements()
}
