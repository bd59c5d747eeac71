// Package quanterference is a Go reproduction of "Understanding and
// Predicting Cross-Application I/O Interference in HPC Storage Systems"
// (Egersdoerfer et al., SC 2024).
//
// It bundles a deterministic discrete-event simulator of a Lustre-like
// parallel file system (rotational disks, block request queues, fair-share
// network, MDS/OSS/OST servers with write-back caching and client
// readahead), generators for the paper's workloads (IO500, DLIO, and
// Enzo/AMReX/OpenPMD emulations), the paper's client- and server-side
// monitors, the §III-D labelling pipeline, and a from-scratch kernel-based
// neural network that predicts per-time-window interference severity.
//
// This root package re-exports the high-level API; the implementation lives
// in internal/ packages. Typical use:
//
//	// Measure a workload under interference.
//	res, err := quanterference.RunE(quanterference.Scenario{ ... })
//
//	// The same scenario on NVMe-class storage (hardware profiles bundle
//	// disk, network, burst-buffer, and server parameters; the zero value
//	// is the paper's testbed).
//	scenario.Hardware = quanterference.NVMeProfile()
//	res, err = quanterference.RunE(scenario)
//
//	// Collect a labelled dataset (§III-D) and train the model.
//	ds, err := quanterference.CollectDatasetE(base, variants,
//		quanterference.CollectorConfig{IncludeBaseline: true})
//	fw, confusion, err := quanterference.TrainFrameworkE(ds, quanterference.FrameworkConfig{})
//
//	// Predict online.
//	class, probs := fw.Predict(windowMatrix)
//
//	// Observe the simulator itself: metrics + Chrome trace-event export.
//	sink := quanterference.NewSink()
//	sink.EnableTrace(0)
//	res, err = quanterference.RunE(scenario, quanterference.WithSink(sink))
//	_ = sink.WriteTrace(file) // open in about:tracing / Perfetto
//
// Every entry point also has a context-aware form (RunCtx, CollectDatasetCtx,
// TrainFrameworkCtx) that observes cancellation and deadlines, returning an
// error matching both ErrCanceled and the context's own error. The original
// panic-on-error entry points (Run, CollectDataset, TrainFramework) have been
// removed; use the error-returning forms above.
//
// A trained framework can also be served over HTTP with cmd/quantserve,
// which batches concurrent predictions deterministically and hot-reloads
// the model file without dropping requests; see internal/serve and the
// README's "Serving" section.
//
// # Determinism
//
// Everything here is reproducible by construction. A simulation is one
// single-threaded discrete-event engine with (time, sequence)-ordered
// dispatch and seeded RNGs: the same Scenario and seed produce
// byte-identical traces and metrics on every run and every machine.
// Training is deterministic too, including the data-parallel path: the
// trainer shards each mini-batch into a fixed partition and reduces
// gradients in a fixed order, so trained weights are bit-identical for
// every worker count. Both properties are regression-tested against
// committed goldens; ARCHITECTURE.md states the exact contracts.
//
// The experiment drivers that regenerate every table and figure of the
// paper are exposed as TableI, Figure1a/b, TableII, Figure3a/b, Figure4,
// Figure5, and the Ablation* functions; cmd/figures wraps them all.
package quanterference

import (
	"context"

	"quanterference/internal/core"
	"quanterference/internal/dataset"
	"quanterference/internal/experiments"
	"quanterference/internal/fault"
	"quanterference/internal/hw"
	"quanterference/internal/label"
	"quanterference/internal/ml"
	"quanterference/internal/monitor/window"
	"quanterference/internal/obs"
	"quanterference/internal/sim"
)

// Simulation building blocks.
type (
	// Cluster is one simulated system: engine, network, file system.
	Cluster = core.Cluster
	// Scenario describes a measurement run.
	Scenario = core.Scenario
	// TargetSpec places the measured application.
	TargetSpec = core.TargetSpec
	// InterferenceSpec places one looping background workload.
	InterferenceSpec = core.InterferenceSpec
	// RunResult is a completed run's trace and windows.
	RunResult = core.RunResult
	// Variant is one interference configuration during data collection.
	Variant = core.Variant
	// CollectorConfig controls training-data generation.
	CollectorConfig = core.CollectorConfig
	// Framework is the trained prediction service.
	Framework = core.Framework
	// FrameworkConfig controls model training.
	FrameworkConfig = core.FrameworkConfig
	// LiveMonitor emits per-window matrices from a live run.
	LiveMonitor = core.LiveMonitor

	// HardwareProfile bundles the simulated storage hardware — disk model,
	// NIC speed/latency, optional client burst buffers, and server-side
	// costs — as one serializable value (Scenario.Hardware).
	// The zero value, like PaperProfile, is the paper's testbed.
	HardwareProfile = hw.Profile

	// Bins discretizes degradation levels into classes.
	Bins = label.Bins
	// Dataset is a labelled sample collection.
	Dataset = dataset.Dataset
	// Confusion is an evaluation confusion matrix.
	Confusion = ml.Confusion

	// Time is a simulated timestamp/duration in nanoseconds.
	Time = sim.Time

	// Sink is the observability layer: a metrics registry plus a trace
	// collector with Chrome trace-event export. Attach one with WithSink.
	Sink = obs.Sink
	// Stats is a point-in-time metrics snapshot (RunResult.Stats).
	Stats = obs.Snapshot
	// Option tunes RunE/CollectDatasetE/TrainFrameworkE.
	Option = core.Option

	// FaultSpec declares one degraded-mode episode (Scenario.Faults): a
	// fail-slow disk, OST stall, cache squeeze, MDS storm, or NIC collapse,
	// injected deterministically at a chosen simulated time.
	FaultSpec = fault.Spec
	// FaultKind enumerates the fault classes.
	FaultKind = fault.Kind
	// CollectReport is CollectDatasetE's per-variant completion accounting
	// (WithCollectReport).
	CollectReport = core.CollectReport
	// SkippedVariant records one variant run dropped during collection.
	SkippedVariant = core.SkippedVariant
)

// Fault classes for FaultSpec.Kind.
const (
	DiskSlow         = fault.DiskSlow
	OSTStall         = fault.OSTStall
	OSTCachePressure = fault.OSTCachePressure
	MDSStorm         = fault.MDSStorm
	NetCollapse      = fault.NetCollapse
)

// ParseFaultSpecs parses a comma-separated episode list in the CLI syntax,
// each "kind:target:start:duration[:severity]" with times in seconds, e.g.
// "disk-slow:ost0:10:5:4,mds-storm:mdt:0:20:8".
func ParseFaultSpecs(s string) ([]FaultSpec, error) { return fault.ParseSpecs(s) }

// Typed errors returned by the error-returning API; match with errors.Is.
var (
	ErrInvalidScenario    = core.ErrInvalidScenario
	ErrBaselineUnfinished = core.ErrBaselineUnfinished
	ErrVariantUnfinished  = core.ErrVariantUnfinished
	ErrAllVariantsFailed  = core.ErrAllVariantsFailed
	ErrEmptyDataset       = core.ErrEmptyDataset
	ErrBinsMismatch       = core.ErrBinsMismatch
	ErrBadFrameworkFile   = core.ErrBadFrameworkFile
	// ErrWarmStartMismatch marks a WithWarmStart framework whose shape does
	// not match the dataset being retrained on.
	ErrWarmStartMismatch = core.ErrWarmStartMismatch
	// ErrCanceled marks errors from the *Ctx entry points whose context was
	// done; the error also matches the context's own error (context.Canceled
	// or context.DeadlineExceeded).
	ErrCanceled = core.ErrCanceled
	// ErrUnknownProfile marks a ProfileByName lookup with a name outside
	// ProfileNames.
	ErrUnknownProfile = hw.ErrUnknownProfile
)

// NewSink returns an empty observability sink.
func NewSink() *Sink { return obs.New() }

// Hardware profiles. PaperProfile is the testbed every zero-valued Scenario
// simulates — bit-identical to the behaviour before profiles existed (the
// golden-trace tests pin this). The other constructors swap in alternative
// storage subsystems; ProfileNames/ProfileByName map the CLI names.
func PaperProfile() HardwareProfile       { return hw.PaperProfile() }
func NVMeProfile() HardwareProfile        { return hw.NVMeProfile() }
func FastNICProfile() HardwareProfile     { return hw.FastNICProfile() }
func BurstBufferProfile() HardwareProfile { return hw.BurstBufferProfile() }

// ProfileNames lists every named profile's ByName key.
func ProfileNames() []string { return hw.Names() }

// ProfileByName returns the named profile, or an error wrapping
// ErrUnknownProfile.
func ProfileByName(name string) (HardwareProfile, error) { return hw.ByName(name) }

// Options
//
// The functional options below tune the error-returning and context-aware
// entry points. Each option states which entry points it applies to; an
// option passed to an entry point it does not apply to is silently ignored.
//
//	WithSink           RunE/Ctx, CollectDatasetE/Ctx — instrument on a shared sink
//	WithCollectReport  CollectDatasetE/Ctx — per-variant completion accounting
//	WithWarmStart      TrainFrameworkE/Ctx — retrain from an incumbent framework
//
// Everything else is a field of the call's own config: Scenario.Hardware
// picks the hardware profile, CollectorConfig.Bins and FrameworkConfig.Bins
// the degradation bins, and CollectorConfig.IncludeBaseline adds the
// baseline's label-0 windows.

// WithSink attaches an observability sink to every cluster the call builds;
// RunResult.Stats snapshots it, and parallel collection runs aggregate on it.
func WithSink(s *Sink) Option { return core.WithSink(s) }

// WithCollectReport fills r with per-variant completion accounting after
// CollectDatasetE returns.
func WithCollectReport(r *CollectReport) Option { return core.WithCollectReport(r) }

// WithWarmStart makes TrainFrameworkE/TrainFrameworkCtx retrain incrementally
// from an incumbent framework (cloned weights, reused scaler and bins) instead
// of fresh random weights — the continuous-learning loop's retraining mode
// (internal/online).
func WithWarmStart(fw *Framework) Option { return core.WithWarmStart(fw) }

// NewCluster builds a fresh simulated cluster on the paper's layout with the
// given hardware profile.
func NewCluster(p HardwareProfile) *Cluster { return core.NewCluster(p) }

// RunE executes a scenario on a fresh cluster, returning typed errors
// (ErrInvalidScenario) instead of panicking. The
// cluster is instrumented on WithSink's sink (or a private one), so
// RunResult.Stats is always populated.
func RunE(s Scenario, opts ...Option) (*RunResult, error) { return core.RunE(s, opts...) }

// RunCtx is RunE with cancellation: the simulation loop observes ctx at
// every window boundary; when the context is done the run is abandoned with
// an error matching both ErrCanceled and ctx.Err().
func RunCtx(ctx context.Context, s Scenario, opts ...Option) (*RunResult, error) {
	return core.RunCtx(ctx, s, opts...)
}

// CollectDatasetE implements §III-D data generation, returning
// ErrBaselineUnfinished (wrapped) when the baseline hits MaxTime and
// scenario-validation errors instead of panicking. WithSink aggregates
// metrics across all runs, and without it the runs are uninstrumented (same
// samples, no metrics).
func CollectDatasetE(base Scenario, variants []Variant, cfg CollectorConfig, opts ...Option) (*Dataset, error) {
	return core.CollectDatasetE(base, variants, cfg, opts...)
}

// CollectDatasetCtx is CollectDatasetE with cancellation: the baseline and
// every parallel variant run observe ctx, and a done context aborts the
// collection with an error matching both ErrCanceled and ctx.Err().
func CollectDatasetCtx(ctx context.Context, base Scenario, variants []Variant, cfg CollectorConfig, opts ...Option) (*Dataset, error) {
	return core.CollectDatasetCtx(ctx, base, variants, cfg, opts...)
}

// TrainFrameworkE trains the kernel-based model with the paper's 80/20
// split and returns the framework plus the held-out confusion matrix. It
// returns ErrEmptyDataset on nil/empty input and ErrBinsMismatch when the
// config's bins name a different number of classes than the dataset has.
func TrainFrameworkE(ds *Dataset, cfg FrameworkConfig, opts ...Option) (*Framework, *Confusion, error) {
	return core.TrainFrameworkE(ds, cfg, opts...)
}

// TrainFrameworkCtx is TrainFrameworkE with cancellation: the epoch loop
// observes ctx and a done context stops training with an error matching
// both ErrCanceled and ctx.Err().
func TrainFrameworkCtx(ctx context.Context, ds *Dataset, cfg FrameworkConfig, opts ...Option) (*Framework, *Confusion, error) {
	return core.TrainFrameworkCtx(ctx, ds, cfg, opts...)
}

// WindowMatrix is one time window's per-server feature vectors.
type WindowMatrix = window.Matrix

// AttachLive starts runtime monitoring on a cluster (Figure 2's online path).
func AttachLive(cl *Cluster, windowSize Time, onWindow func(idx int, mat WindowMatrix)) *LiveMonitor {
	return core.AttachLive(cl, windowSize, onWindow)
}

// BinaryBins is the paper's binary >=2x setting; SeverityBins the 3-class one.
func BinaryBins() Bins   { return label.BinaryBins() }
func SeverityBins() Bins { return label.SeverityBins() }

// Seconds converts seconds to simulated Time.
func Seconds(s float64) Time { return sim.Seconds(s) }

// LoadFramework restores a framework persisted with Framework.Save.
func LoadFramework(path string) (*Framework, error) { return core.LoadFramework(path) }

// Experiment drivers (one per paper table/figure); see cmd/figures.
var (
	TableI               = experiments.TableI
	Figure1a             = experiments.Figure1a
	Figure1b             = experiments.Figure1b
	TableII              = experiments.TableII
	Figure3a             = experiments.Figure3a
	Figure3b             = experiments.Figure3b
	Figure4              = experiments.Figure4
	Figure5              = experiments.Figure5
	IO500Dataset         = experiments.IO500Dataset
	DLIODataset          = experiments.DLIODataset
	AppDataset           = experiments.AppDataset
	AblationArchitecture = experiments.AblationArchitecture
	AblationFeatures     = experiments.AblationFeatures
	AblationWindow       = experiments.AblationWindow
	// Extensions beyond the paper.
	ExtensionArchitectures = experiments.ExtensionArchitectures
	ExtensionRegression    = experiments.ExtensionRegression
	PhaseStudy             = experiments.PhaseStudy
	Robustness             = experiments.Robustness
	// TransferStudy measures cross-profile model transfer: per-profile
	// interference matrices, zero-shot accuracy of a model moved between
	// hardware profiles, and warm-started fine-tuning (cmd/figures -only
	// transfer).
	TransferStudy = experiments.TransferStudy
)
