// Package core assembles the paper's framework (Figure 2): the client-side
// monitor tracing the target application, the server-side monitors sampling
// every storage target, and the training server that turns windows into
// per-server vectors, labels them against a baseline run, trains the
// kernel-based model, and serves online predictions.
//
// The substrate is the simulated cluster, which NewCluster builds on the
// paper's layout (internal/lustre) from one hardware profile (internal/hw).
// The public entry points are RunE/RunCtx for single Scenario runs,
// CollectDatasetE/CollectDatasetCtx for §III-D training-data generation,
// and TrainFrameworkE/TrainFrameworkCtx for the Framework that evaluates
// and predicts.
package core

import (
	"context"
	"fmt"
	"slices"

	"quanterference/internal/bb"
	"quanterference/internal/fault"
	"quanterference/internal/hw"
	"quanterference/internal/lustre"
	"quanterference/internal/monitor/clientmon"
	"quanterference/internal/monitor/servermon"
	"quanterference/internal/monitor/window"
	"quanterference/internal/netsim"
	"quanterference/internal/obs"
	"quanterference/internal/sim"
	"quanterference/internal/workload"
)

// Cluster is one simulated system instance.
type Cluster struct {
	Eng *sim.Engine
	Net *netsim.Network
	FS  *lustre.FS
	// BB is the profile's burst-buffer tier, nil unless the profile enables
	// one. Writes go through it only where a runner routes them
	// (workload.Runner.WriteViaFor).
	BB *bb.Tier
	// Sink is the attached observability sink, nil until Instrument.
	Sink *obs.Sink
}

// NewCluster builds a fresh engine, network, and file system on the paper's
// layout (internal/lustre) with the hardware profile p: its disk model,
// server costs and NIC speed shape the file system, its latency the
// network, and its BB section the burst-buffer tier. The zero profile is
// the paper's testbed.
func NewCluster(p hw.Profile) *Cluster {
	eng := sim.NewEngine()
	net := netsim.New(eng, netsim.Config{Latency: p.Net.Latency})
	cl := &Cluster{Eng: eng, Net: net, FS: lustre.New(eng, net, p)}
	if p.BB.Enabled {
		cl.BB = bb.NewTier(cl.FS, p.BB)
	}
	return cl
}

// Instrument attaches an observability sink to every layer of the cluster:
// the event engine, the network fabric, and the file system (OSTs, MDS,
// clients). Returns the cluster for chaining.
func (cl *Cluster) Instrument(s *obs.Sink) *Cluster {
	cl.Sink = s
	cl.Eng.Instrument(s)
	cl.Net.Instrument(s)
	cl.FS.Instrument(s)
	return cl
}

// TargetSpec places the measured application.
type TargetSpec struct {
	Gen   workload.Generator
	Nodes []string
	Ranks int
}

// InterferenceSpec places one looping interference workload.
type InterferenceSpec struct {
	Gen   workload.Generator
	Nodes []string
	Ranks int
	// StartAt delays the interference (default: starts immediately).
	StartAt sim.Time
}

// Scenario is one measurement run: a target workload, optional interference,
// and the monitoring window size, on the paper's cluster layout.
type Scenario struct {
	// Hardware selects the storage subsystem the scenario simulates: the
	// disk model behind every storage target, NIC bandwidth/latency,
	// optional client burst buffers, and server-side costs. The zero value
	// (or hw.PaperProfile()) is the paper's testbed.
	Hardware     hw.Profile
	Target       TargetSpec
	Interference []InterferenceSpec
	// WindowSize is the monitor aggregation window (default 1 s).
	WindowSize sim.Time
	// MaxTime caps the run (default 600 s); the run also ends when the
	// target finishes.
	MaxTime sim.Time
	// OSTSkew rotates the round-robin OST allocator before any file is
	// created, so repeated collections place the target on different
	// OSTs — the run-to-run layout variance §III-C motivates the kernel
	// model with.
	OSTSkew int
	// Faults are deterministic degraded-mode episodes injected into the
	// cluster (fail-slow disks, OST stalls, cache squeezes, MDS storms,
	// NIC collapses). Pair with RPCTimeout to exercise the clients'
	// retry/backoff path.
	Faults []fault.Spec
	// RPCTimeout arms per-bulk-RPC timeouts on the clients
	// (lustre.FS.SetRPCTimeout); 0 leaves them off, the healthy-cluster
	// model.
	RPCTimeout sim.Time
}

func (s *Scenario) applyDefaults() {
	if s.Hardware.IsZero() {
		s.Hardware = hw.PaperProfile()
	}
	if s.WindowSize == 0 {
		s.WindowSize = sim.Second
	}
	if s.MaxTime == 0 {
		s.MaxTime = 600 * sim.Second
	}
}

// validate checks a defaulted scenario, returning ErrInvalidScenario-wrapped
// errors for anything the simulator would otherwise panic on mid-run.
func (s *Scenario) validate() error {
	if s.Target.Gen == nil || s.Target.Ranks <= 0 || len(s.Target.Nodes) == 0 {
		return fmt.Errorf("%w: target needs Gen, Ranks > 0, and Nodes", ErrInvalidScenario)
	}
	if err := s.Hardware.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidScenario, err)
	}
	if s.WindowSize <= 0 {
		return fmt.Errorf("%w: non-positive window size %d ns", ErrInvalidScenario, s.WindowSize)
	}
	if s.WindowSize%sim.Second != 0 {
		return fmt.Errorf("%w: window size %d ns (%.3f s) must be a whole multiple of one second "+
			"(%d ns) — the server-side monitor samples once per second, so windows that are not "+
			"second-aligned cannot be assembled", ErrInvalidScenario,
			s.WindowSize, sim.ToSeconds(s.WindowSize), sim.Second)
	}
	if s.MaxTime <= 0 {
		return fmt.Errorf("%w: non-positive MaxTime %d", ErrInvalidScenario, s.MaxTime)
	}
	if s.OSTSkew < 0 {
		return fmt.Errorf("%w: negative OSTSkew %d", ErrInvalidScenario, s.OSTSkew)
	}
	for i, spec := range s.Interference {
		if spec.Gen == nil || spec.Ranks <= 0 || len(spec.Nodes) == 0 {
			return fmt.Errorf("%w: interference %d needs Gen, Ranks > 0, and Nodes",
				ErrInvalidScenario, i)
		}
		if spec.StartAt < 0 {
			return fmt.Errorf("%w: interference %d has negative StartAt", ErrInvalidScenario, i)
		}
	}
	clients := lustre.Clients()
	for _, node := range s.Target.Nodes {
		if !slices.Contains(clients, node) {
			return fmt.Errorf("%w: target node %q is not a topology client %v",
				ErrInvalidScenario, node, clients)
		}
	}
	for i, spec := range s.Interference {
		for _, node := range spec.Nodes {
			if !slices.Contains(clients, node) {
				return fmt.Errorf("%w: interference %d node %q is not a topology client %v",
					ErrInvalidScenario, i, node, clients)
			}
		}
	}
	for i, f := range s.Faults {
		if err := f.Validate(); err != nil {
			return fmt.Errorf("%w: fault %d: %v", ErrInvalidScenario, i, err)
		}
	}
	return nil
}

// faultEndpoints maps the assembled cluster's degradable components for the
// fault injector: every storage target's disk, every OST's block layer and
// write-back cache, the MDS, and the network fabric.
func faultEndpoints(cl *Cluster) fault.Endpoints {
	eps := fault.Endpoints{
		Disks:    make(map[string]fault.DiskSlower),
		Stalls:   make(map[string]fault.Staller),
		Caches:   make(map[string]fault.CachePressurer),
		CPUs:     map[string]fault.CPUScaler{"mdt": cl.FS.MDS()},
		Net:      cl.Net,
		NetNodes: make(map[string]bool),
	}
	for i := 0; i < cl.FS.NumOSTs(); i++ {
		name := cl.FS.TargetName(i)
		ost := cl.FS.OST(i)
		eps.Disks[name] = ost.Queue().Device()
		eps.Stalls[name] = ost
		eps.Caches[name] = ost
	}
	eps.Disks["mdt"] = cl.FS.MDS().Queue().Device()
	eps.NetNodes[cl.FS.MDS().Node] = true
	for _, oss := range cl.FS.OSSs() {
		eps.NetNodes[oss.Node] = true
	}
	for _, cn := range lustre.Clients() {
		eps.NetNodes[cn] = true
	}
	return eps
}

// InjectFaults schedules deterministic fault episodes on an already-built
// cluster — the manual-assembly counterpart of Scenario.Faults for callers
// that wire clusters by hand (experiments, mitigation studies). Specs are
// validated first; an invalid spec returns an error wrapping
// ErrInvalidScenario with nothing scheduled. The injector instruments itself
// on cl.Sink when the cluster was Instrument-ed, so fault/injected counters
// land beside the rest of the run's metrics. Call before cl.Eng runs past
// the first spec's start time.
func (cl *Cluster) InjectFaults(specs []fault.Spec) error {
	if len(specs) == 0 {
		return nil
	}
	inj := fault.NewInjector(cl.Eng, faultEndpoints(cl))
	if cl.Sink != nil {
		inj.Instrument(cl.Sink)
	}
	if err := inj.Inject(specs); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidScenario, err)
	}
	return nil
}

// RunResult is everything one scenario run produced.
type RunResult struct {
	// Records is the target workload's client-side trace.
	Records []workload.Record
	// Windows maps window index to the assembled per-server vectors.
	Windows map[int]window.Matrix
	// ServerWindows retains the raw server-side vectors per window.
	ServerWindows map[int][][]float64
	// Duration is when the target finished (or MaxTime).
	Duration sim.Time
	// Finished reports whether the target completed before MaxTime.
	Finished bool
	// NTargets is the storage-target count of the cluster.
	NTargets int
	// Stats is the end-of-run observability snapshot: engine, disk,
	// blockqueue, netsim, OST, MDS, and client metrics. RunE and RunCtx
	// always populate it — when no WithSink option is given the run
	// instruments a private sink. (CollectDatasetE's own runs are
	// uninstrumented without WithSink; it returns no RunResult.)
	Stats *obs.Snapshot
}

// RunE executes a scenario on a fresh cluster. It validates the scenario up
// front, returning an error wrapping ErrInvalidScenario instead of
// panicking mid-run. The cluster is instrumented on the WithSink option's
// sink, or on a private one, so RunResult.Stats is always populated.
func RunE(s Scenario, opts ...Option) (*RunResult, error) {
	return RunCtx(context.Background(), s, opts...)
}

// RunCtx is RunE with cancellation: the simulation loop checks ctx at every
// window boundary and, when the context is done, abandons the run and
// returns an error wrapping both ErrCanceled and ctx.Err(). Simulated time
// is unrelated to wall time — a context deadline bounds how long the caller
// waits, not how long the simulated scenario lasts. An uncancelled RunCtx is
// identical to RunE.
func RunCtx(ctx context.Context, s Scenario, opts ...Option) (*RunResult, error) {
	o := applyOptions(opts)
	if o.sink == nil {
		o.sink = obs.New()
	}
	return simulate(ctx, s, &o)
}

// simulate is RunCtx on resolved options. A nil o.sink leaves the cluster
// uninstrumented: every metric handle stays nil, so the hot path pays one
// branch per event, and Stats is an empty snapshot. Collection runs without
// WithSink take that path, since nothing reads their Stats.
func simulate(ctx context.Context, s Scenario, o *options) (*RunResult, error) {
	s.applyDefaults()
	if err := s.validate(); err != nil {
		return nil, err
	}
	cl := NewCluster(s.Hardware)
	cl.FS.SetRPCTimeout(s.RPCTimeout)
	if o.sink != nil {
		cl.Instrument(o.sink)
	}
	if err := cl.InjectFaults(s.Faults); err != nil {
		return nil, err
	}
	for i := 0; i < s.OSTSkew; i++ {
		cl.FS.Populate(fmt.Sprintf("/.skew%d", i), 1, 1)
	}

	cm := clientmon.New(cl.FS.NumTargets(), s.WindowSize)
	sm := servermon.New(cl.FS, s.WindowSize)

	res := &RunResult{NTargets: cl.FS.NumTargets()}

	// Under a burst-buffer profile every compute node writes through its own
	// node-local buffer, shared by all ranks — target or interference — on
	// that node.
	var bbRoute func(node string) func(h *lustre.Handle, off, length int64, done func())
	if cl.BB != nil {
		bbRoute = cl.BB.Route
	}

	var interfRunners []*workload.Runner
	for i, spec := range s.Interference {
		spec := spec
		r := &workload.Runner{
			FS: cl.FS, Name: fmt.Sprintf("interference%d-%s", i, spec.Gen.Name()),
			Nodes: spec.Nodes, Ranks: spec.Ranks, Gen: spec.Gen, Loop: true,
			WriteViaFor: bbRoute,
		}
		interfRunners = append(interfRunners, r)
		if spec.StartAt > 0 {
			cl.Eng.Schedule(spec.StartAt, r.Start)
		} else {
			r.Start()
		}
	}

	target := &workload.Runner{
		FS: cl.FS, Name: s.Target.Gen.Name(),
		Nodes: s.Target.Nodes, Ranks: s.Target.Ranks, Gen: s.Target.Gen,
		WriteViaFor: bbRoute,
		OnRecord: func(rec workload.Record) {
			cm.Record(rec)
			res.Records = append(res.Records, rec)
		},
		OnDone: func() {
			res.Finished = true
			res.Duration = cl.Eng.Now()
			for _, r := range interfRunners {
				r.Stop()
			}
		},
	}
	target.Start()
	// The target does not loop, so one pass of its streams bounds its
	// records: size the trace once instead of growing it by doubling.
	res.Records = slices.Grow(res.Records, target.IOOps()-len(res.Records))

	// Run to the window boundary after the target completes, so the last
	// window's server metrics are finalized.
	for cl.Eng.Now() < s.MaxTime {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%w at simulated t=%v: %w", ErrCanceled, cl.Eng.Now(), err)
		}
		cl.Eng.RunUntil(cl.Eng.Now() + s.WindowSize)
		if res.Finished {
			// One more boundary to finalize the final window.
			cl.Eng.RunUntil(((cl.Eng.Now()/s.WindowSize)+1)*s.WindowSize + 1)
			break
		}
	}
	if !res.Finished {
		res.Duration = cl.Eng.Now()
		target.Stop()
		for _, r := range interfRunners {
			r.Stop()
		}
	}
	sm.Stop()

	res.Windows = window.Collect(cl.FS.NumTargets(), cm, sm)
	res.ServerWindows = make(map[int][][]float64)
	for _, idx := range sm.Windows() {
		v, _ := sm.Window(idx)
		res.ServerWindows[idx] = v
	}
	res.Stats = cl.Sink.Snapshot()
	return res, nil
}
