package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"quanterference/internal/dataset"
	"quanterference/internal/label"
	"quanterference/internal/monitor/window"
	"quanterference/internal/par"
)

// Variant is one interference configuration used during training-data
// collection: the target workload is re-run against it and every labelled
// window becomes one sample.
type Variant struct {
	Name         string
	Interference []InterferenceSpec
}

// minOpsPerWindow drops windows with fewer matched ops than this from a
// collected dataset: too few ops make a window's degradation noise.
const minOpsPerWindow = 3

// CollectorConfig controls §III-D data generation.
type CollectorConfig struct {
	// Bins discretize degradation into classes (default: binary >=2x).
	Bins label.Bins
	// IncludeBaseline adds the baseline run's own windows as label-0
	// samples (degradation 1.0), teaching the model what "no
	// interference" looks like.
	IncludeBaseline bool
}

// SkippedVariant records one variant run CollectDatasetE dropped instead of
// aborting the whole collection.
type SkippedVariant struct {
	// Index is the variant's position in the variants slice.
	Index int
	// Name is the variant's display name ("variantN" when unnamed).
	Name string
	// Err is what felled the run: an ErrVariantUnfinished wrap, a scenario
	// error from RunE, or a *par.PanicError from a crashed worker.
	Err error
}

// CollectReport is CollectDatasetE's per-variant accounting, filled through
// the WithCollectReport option. Under fault injection some variant runs may
// legitimately not finish; the report says which ones were dropped and why,
// so dataset consumers can tell "all healthy" from "degraded but usable".
type CollectReport struct {
	// Variants is how many variants were requested.
	Variants int
	// Completed is how many variant runs finished and contributed samples.
	Completed int
	// BaselineSamples and VariantSamples count the dataset's samples by
	// origin.
	BaselineSamples int
	VariantSamples  int
	// Skipped lists the dropped variants in index order.
	Skipped []SkippedVariant
}

// CollectDatasetE implements §III-D data generation with error reporting:
// an unfinished baseline returns ErrBaselineUnfinished (wrapped), invalid
// scenarios return ErrInvalidScenario. WithSink
// aggregates observability across the baseline and every variant run.
// Without WithSink the runs are uninstrumented, which changes no simulated
// event and no sample. Every variant run copies base, so base.Hardware
// covers them all and is recorded in the dataset header.
//
// Variant runs degrade gracefully: a variant that fails — its scenario is
// invalid, its worker panics, or (typical under Scenario.Faults) the target
// does not finish within MaxTime — is skipped and recorded in the
// WithCollectReport report instead of aborting the collection. Only when
// every variant fails does CollectDatasetE return ErrAllVariantsFailed.
func CollectDatasetE(base Scenario, variants []Variant, cfg CollectorConfig, opts ...Option) (*dataset.Dataset, error) {
	return CollectDatasetCtx(context.Background(), base, variants, cfg, opts...)
}

// CollectDatasetCtx is CollectDatasetE with cancellation: the baseline run,
// and every variant run in the par.MapE fan-out, observe ctx at window
// boundaries. When the context is done the collection stops and returns an
// error wrapping both ErrCanceled and ctx.Err() — cancellation is reported
// as such, never disguised as ErrAllVariantsFailed. An uncancelled
// CollectDatasetCtx is identical to CollectDatasetE.
func CollectDatasetCtx(ctx context.Context, base Scenario, variants []Variant, cfg CollectorConfig, opts ...Option) (*dataset.Dataset, error) {
	o := applyOptions(opts)
	if cfg.Bins.Thresholds == nil {
		cfg.Bins = label.BinaryBins()
	}
	base.applyDefaults()
	base.Interference = nil

	// simulate, not RunCtx: without WithSink the runs stay uninstrumented,
	// since every per-run Stats would be discarded.
	baseRes, err := simulate(ctx, base, &o)
	if err != nil {
		return nil, err
	}
	if !baseRes.Finished {
		return nil, fmt.Errorf("%w (MaxTime %v, target %s)",
			ErrBaselineUnfinished, base.MaxTime, base.Target.Gen.Name())
	}
	labeler := label.New(baseRes.Records, base.WindowSize, minOpsPerWindow)

	ds := dataset.New(window.FeatureNames(), baseRes.NTargets, cfg.Bins.Classes())
	ds.Profile = base.Hardware.DisplayName()

	// samplesFor builds one run's samples in ascending window order, so the
	// dataset's sample order — and hence every seeded split — is
	// reproducible.
	samplesFor := func(runName string, res *RunResult, degs map[int]float64) []*dataset.Sample {
		idxs := make([]int, 0, len(degs))
		for idx := range degs {
			idxs = append(idxs, idx)
		}
		sort.Ints(idxs)
		out := make([]*dataset.Sample, 0, len(idxs))
		for _, idx := range idxs {
			mat, ok := res.Windows[idx]
			if !ok {
				continue
			}
			out = append(out, &dataset.Sample{
				Workload:    base.Target.Gen.Name(),
				Run:         runName,
				Window:      idx,
				Degradation: degs[idx],
				Label:       cfg.Bins.Label(degs[idx]),
				Vectors:     mat,
			})
		}
		return out
	}

	report := CollectReport{Variants: len(variants)}
	if cfg.IncludeBaseline {
		for _, s := range samplesFor("baseline", baseRes, labeler.Degradations(baseRes.Records)) {
			ds.Add(s)
			report.BaselineSamples++
		}
	}
	variantName := func(i int) string {
		if variants[i].Name != "" {
			return variants[i].Name
		}
		return fmt.Sprintf("variant%d", i)
	}
	// Variant runs are independent simulations: fan out across cores and
	// splice the results back in variant order. MapE contains worker errors
	// and panics, so one bad variant cannot take down the rest of the sweep.
	perVariant := make([][]*dataset.Sample, len(variants))
	errs := make([]error, len(variants))
	joined := par.MapE(len(variants), func(i int) error {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			return err
		}
		run := base
		run.Interference = variants[i].Interference
		res, err := simulate(ctx, run, &o)
		if err != nil {
			errs[i] = err
			return err
		}
		if !res.Finished {
			errs[i] = fmt.Errorf("%w (MaxTime %v, target %s)",
				ErrVariantUnfinished, run.MaxTime, run.Target.Gen.Name())
			return errs[i]
		}
		perVariant[i] = samplesFor(variantName(i), res, labeler.Degradations(res.Records))
		return nil
	})
	// Panicking workers never stored into errs; map them back by index.
	for _, e := range par.Errors(joined) {
		var pe *par.PanicError
		if errors.As(e, &pe) && errs[pe.Index] == nil {
			errs[pe.Index] = pe
		}
	}
	for i, samples := range perVariant {
		if errs[i] != nil {
			report.Skipped = append(report.Skipped, SkippedVariant{
				Index: i, Name: variantName(i), Err: errs[i],
			})
			continue
		}
		report.Completed++
		for _, s := range samples {
			ds.Add(s)
			report.VariantSamples++
		}
	}
	if o.report != nil {
		*o.report = report
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w during variant collection: %w", ErrCanceled, err)
	}
	if len(variants) > 0 && report.Completed == 0 {
		return nil, fmt.Errorf("%w: %d/%d skipped; first: variant %d (%s): %v",
			ErrAllVariantsFailed, len(report.Skipped), len(variants),
			report.Skipped[0].Index, report.Skipped[0].Name, report.Skipped[0].Err)
	}
	return ds, nil
}
