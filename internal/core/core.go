// Package core assembles the paper's framework (Figure 2): the client-side
// monitor tracing the target application, the server-side monitors sampling
// every storage target, and the training server that turns windows into
// per-server vectors, labels them against a baseline run, trains the
// kernel-based model, and serves online predictions.
//
// The substrate is the simulated cluster (internal/lustre and friends); the
// public entry points are Scenario/Run for single measurement runs,
// Collector for §III-D training-data generation, and Framework for
// train/evaluate/predict.
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
	// Sink is the attached observability sink, nil until Instrument.
	Sink *obs.Sink
}

// NewCluster builds a fresh engine, network, and file system with the
// default (paper) fabric parameters.
func NewCluster(topo lustre.Topology, cfg lustre.Config) *Cluster {
	return NewClusterNet(topo, cfg, netsim.Config{})
}

// NewClusterNet is NewCluster with an explicit fabric configuration — the
// threading point for a hardware profile's NIC latency. The zero
// netsim.Config is exactly NewCluster.
func NewClusterNet(topo lustre.Topology, cfg lustre.Config, ncfg netsim.Config) *Cluster {
	eng := sim.NewEngine()
	net := netsim.New(eng, ncfg)
	fs := lustre.New(eng, net, topo, cfg)
	return &Cluster{Eng: eng, Net: net, FS: fs}
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
// and the monitoring window size.
type Scenario struct {
	Topology lustre.Topology
	FSConfig lustre.Config
	// Hardware selects the storage subsystem the scenario simulates: the
	// disk model behind every storage target, NIC bandwidth/latency,
	// optional client burst buffers, and server-side costs. The zero value
	// (or hw.PaperProfile()) is the paper's testbed, bit-identical to the
	// pre-profile behaviour. Profile values fill only scenario fields left
	// at their zero default — an explicit FSConfig entry wins — except
	// Topology.NICBps, which a profile with Net.NICBps > 0 always
	// overrides (PaperTopology pins 1 GB/s, so "unset" is not observable
	// there).
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
	// NIC collapses). Pair with FSConfig.RPCTimeout to exercise the
	// clients' retry/backoff path.
	Faults []fault.Spec
}

func (s *Scenario) applyDefaults() {
	if s.Hardware.IsZero() {
		s.Hardware = hw.PaperProfile()
	}
	if s.Topology.MDSNode == "" {
		s.Topology = lustre.PaperTopology()
	}
	if s.WindowSize == 0 {
		s.WindowSize = sim.Second
	}
	if s.MaxTime == 0 {
		s.MaxTime = 600 * sim.Second
	}
	s.applyHardware()
}

// applyHardware overlays the resolved hardware profile onto the scenario's
// simulator configuration. Profile values fill only fields still at their
// zero default, so an explicit FSConfig setting wins over the profile;
// Net.NICBps > 0 overrides the topology's NIC speed outright (see
// Scenario.Hardware).
func (s *Scenario) applyHardware() {
	p := &s.Hardware
	if s.FSConfig.Disk == (lustre.Config{}).Disk {
		s.FSConfig.Disk = p.Disk
	}
	if s.FSConfig.MDSOpCPU == 0 {
		s.FSConfig.MDSOpCPU = p.Server.MDSOpCPU
	}
	if s.FSConfig.OSSOpCPU == 0 {
		s.FSConfig.OSSOpCPU = p.Server.OSSOpCPU
	}
	if s.FSConfig.WritebackLimit == 0 {
		s.FSConfig.WritebackLimit = p.Server.WritebackLimit
	}
	if s.FSConfig.InodeCacheEntries == 0 {
		s.FSConfig.InodeCacheEntries = p.Server.InodeCacheEntries
	}
	if p.Net.NICBps > 0 {
		s.Topology.NICBps = p.Net.NICBps
	}
}

// validate checks a defaulted scenario, returning ErrInvalidScenario- or
// ErrInvalidTopology-wrapped errors for anything the simulator would
// otherwise panic on mid-run.
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
	if s.Topology.MDSNode == "" || len(s.Topology.OSS) == 0 || len(s.Topology.Clients) == 0 {
		return fmt.Errorf("%w: needs MDSNode, OSS, and Clients", ErrInvalidTopology)
	}
	for i, oss := range s.Topology.OSS {
		if oss.Node == "" || oss.OSTs <= 0 {
			return fmt.Errorf("%w: OSS %d needs Node and OSTs > 0", ErrInvalidTopology, i)
		}
	}
	clients := make(map[string]bool, len(s.Topology.Clients))
	for _, cn := range s.Topology.Clients {
		clients[cn] = true
	}
	for _, node := range s.Target.Nodes {
		if !clients[node] {
			return fmt.Errorf("%w: target node %q is not a topology client", ErrInvalidScenario, node)
		}
	}
	for i, spec := range s.Interference {
		for _, node := range spec.Nodes {
			if !clients[node] {
				return fmt.Errorf("%w: interference %d node %q is not a topology client",
					ErrInvalidScenario, i, node)
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
	topo := cl.FS.Topology()
	eps.NetNodes[topo.MDSNode] = true
	for _, oss := range topo.OSS {
		eps.NetNodes[oss.Node] = true
	}
	for _, cn := range topo.Clients {
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
// front, returning an error wrapping ErrInvalidScenario or
// ErrInvalidTopology instead of panicking mid-run. The cluster is
// instrumented on the WithSink option's sink, or on a private one, so
// RunResult.Stats is always populated.
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
	cl := NewClusterNet(s.Topology, s.FSConfig, netsim.Config{Latency: s.Hardware.Net.Latency})
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
	if s.Hardware.BB.Enabled {
		bbRoute = bb.NewTier(cl.FS, bb.Config{
			Capacity:         s.Hardware.BB.CapacityBytes,
			IngestBps:        s.Hardware.BB.IngestBps,
			DrainConcurrency: s.Hardware.BB.DrainConcurrency,
		}).Route
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
