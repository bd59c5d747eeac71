package online

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"quanterference/internal/core"
	"quanterference/internal/fault"
	"quanterference/internal/label"
	"quanterference/internal/ml"
	"quanterference/internal/monitor/window"
	"quanterference/internal/serve"
	"quanterference/internal/shadow"
	"quanterference/internal/sim"
	"quanterference/internal/workload/io500"
)

// SmokeConfig sizes the end-to-end smoke episode.
type SmokeConfig struct {
	// Seed drives the whole episode (simulation, training, loop); two runs
	// with the same seed produce identical Timeline and PromotedWeights.
	Seed int64
	// Epochs and Workers configure both the initial training and every
	// retrain (defaults 25 and 2).
	Epochs  int
	Workers int
	// Hammer is how many concurrent clients pound the server during the
	// drift/promotion phase to prove reloads drop nothing (default 4).
	Hammer int
	// Log, when set, receives progress lines.
	Log func(format string, args ...interface{})
}

func (c *SmokeConfig) applyDefaults() {
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Epochs == 0 {
		c.Epochs = 25
	}
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.Hammer == 0 {
		c.Hammer = 4
	}
	if c.Log == nil {
		c.Log = func(string, ...interface{}) {}
	}
}

// SmokeResult is the episode's audit trail.
type SmokeResult struct {
	// TrainAccuracy is the incumbent's holdout accuracy after initial
	// training.
	TrainAccuracy float64
	// Timeline is every phase's decisions rendered one per line
	// ("healthy w3 none", "drift w12 promote (...)"), the determinism
	// fingerprint same-seed runs must reproduce exactly.
	Timeline []string
	// Counts across all phases.
	DriftTrips, Retrains, Promotions, Rejections, Rollbacks int
	// PromotedWeights is the bit-exact weight snapshot of the last promoted
	// candidate.
	PromotedWeights [][]float64
	// HammerOK / HammerShed / HammerErr classify the concurrent predictions
	// issued while hot-reloads were happening: answered, shed with the typed
	// overload error, failed any other way (must be 0).
	HammerOK, HammerShed, HammerErr int64
}

func smokeTarget() core.TargetSpec {
	// 2 GiB x 2 ranks runs ~15 one-second windows healthy and ~8x that under
	// the fail-slow faults — enough stream for the detector's minimums while
	// the whole episode stays in simulated time.
	return core.TargetSpec{
		Gen:   io500.New(io500.IorEasyWrite, io500.Params{Dir: "/tgt", Ranks: 2, EasyFileBytes: 2 << 30}),
		Nodes: []string{"c0"},
		Ranks: 2,
	}
}

// firstWindows trims a stream to its first n windows in ascending order, so
// a long degraded run does not turn into a dozen back-to-back retrains.
func firstWindows(s Stream, n int) Stream {
	idxs := make([]int, 0, len(s.Windows))
	for idx := range s.Windows {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	if len(idxs) > n {
		idxs = idxs[:n]
	}
	out := Stream{
		Windows:      make(map[int]window.Matrix, len(idxs)),
		Degradations: make(map[int]float64, len(idxs)),
	}
	for _, idx := range idxs {
		out.Windows[idx] = s.Windows[idx]
		if deg, ok := s.Degradations[idx]; ok {
			out.Degradations[idx] = deg
		}
	}
	return out
}

func smokeRead(dir string, ranks int) []core.InterferenceSpec {
	return []core.InterferenceSpec{{
		Gen:   io500.New(io500.IorEasyRead, io500.Params{Dir: dir, Ranks: ranks, EasyFileBytes: 16 << 20}),
		Nodes: []string{"c1", "c2"},
		Ranks: ranks,
	}}
}

// smokeFaults degrades every OST disk by severity for the run's whole
// duration — the deterministic drift injection of the episode.
func smokeFaults(numOSTs int, severity float64) []fault.Spec {
	specs := make([]fault.Spec, 0, numOSTs)
	for i := 0; i < numOSTs; i++ {
		specs = append(specs, fault.Spec{
			Kind:     fault.DiskSlow,
			Target:   fmt.Sprintf("ost%d", i),
			Start:    0,
			Duration: 600 * sim.Second,
			Severity: severity,
		})
	}
	return specs
}

// SmokeEpisode runs the full continuous-learning story end to end on the
// simulator, deterministically:
//
//  1. collect a training dataset (baseline + read-interference variants) and
//     train the incumbent;
//  2. serve it (serve.Server) and wrap it in a Loop;
//  3. replay a healthy stream — no drift, no retrain;
//  4. inject fail-slow disks, replay the degraded stream — drift trips, a
//     warm-started candidate is retrained, gated, and hot-promoted while
//     concurrent clients hammer the server (nothing may drop);
//  5. force the gate impossible (shadow.RejectAll) and replay degraded
//     windows again — the next candidate is rejected and the served model
//     provably unchanged (rollback).
//
// Any phase behaving out of character returns an error; the result carries
// the decision timeline and promoted weights for same-seed comparison.
func SmokeEpisode(ctx context.Context, cfg SmokeConfig) (*SmokeResult, error) {
	cfg.applyDefaults()
	res := &SmokeResult{}

	// Phase 0: train the incumbent exactly like the offline pipeline would.
	base := core.Scenario{Target: smokeTarget()}
	variants := []core.Variant{
		{Name: "read-light", Interference: smokeRead("/bgA", 2)},
		{Name: "read-heavy", Interference: smokeRead("/bgB", 6)},
	}
	cfg.Log("collecting training data (baseline + %d variants)", len(variants))
	ds, err := core.CollectDatasetCtx(ctx, base, variants,
		core.CollectorConfig{IncludeBaseline: true})
	if err != nil {
		return nil, fmt.Errorf("online: smoke collect: %w", err)
	}
	train := ml.TrainConfig{Epochs: cfg.Epochs, Workers: cfg.Workers}
	fw, conf, err := core.TrainFrameworkCtx(ctx, ds, core.FrameworkConfig{Seed: cfg.Seed, Train: train})
	if err != nil {
		return nil, fmt.Errorf("online: smoke train: %w", err)
	}
	res.TrainAccuracy = conf.Accuracy()
	cfg.Log("incumbent trained on %d samples, holdout accuracy %.3f", ds.Len(), res.TrainAccuracy)

	// The labeler needs the baseline trace; re-run the (deterministic)
	// baseline to get it.
	baseRes, err := core.RunCtx(ctx, core.Scenario{Target: smokeTarget()})
	if err != nil {
		return nil, fmt.Errorf("online: smoke baseline: %w", err)
	}
	labeler := label.New(baseRes.Records, sim.Second, 3)

	srv := serve.New(fw, serve.Config{})
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(sctx)
	}()

	loop, err := NewLoop(srv, Config{
		Seed:        cfg.Seed,
		RefAccuracy: res.TrainAccuracy,
		Train:       train,
		// The reference scaler is fit on the pooled training mix, so any
		// single healthy run already sits up to ~0.9 reference-std from the
		// pooled means. The fail-slow episode pushes several I/O-volume and
		// latency features past 1.5 std, so a 1.2-std effect floor with a
		// 10% feature quorum separates the two cleanly.
		Drift: DriftConfig{MinEffect: 1.2, FeatureFrac: 0.1},
	})
	if err != nil {
		return nil, err
	}

	record := func(phase string, ds []Decision) {
		for _, d := range ds {
			res.Timeline = append(res.Timeline, phase+" "+d.String())
			switch d.Action {
			case ActionPromote:
				res.Promotions++
				res.PromotedWeights = d.CandidateWeights
			case ActionReject:
				res.Rejections++
			}
			if d.Gate != nil {
				res.Retrains++
				res.DriftTrips++
			}
			if d.Rollback {
				res.Rollbacks++
			}
		}
	}
	const labelDelay = 2

	// Phase 1: a healthy stream (the light-interference mix the model was
	// trained on) must not trip anything.
	cfg.Log("phase 1: healthy replay")
	healthyRun, err := core.RunCtx(ctx, core.Scenario{Target: smokeTarget(), Interference: smokeRead("/bgA", 2)})
	if err != nil {
		return nil, fmt.Errorf("online: smoke healthy run: %w", err)
	}
	healthyDecisions, err := loop.Replay(ctx, StreamFromRun(healthyRun, labeler), labelDelay)
	if err != nil {
		return nil, err
	}
	record("healthy", healthyDecisions)
	for _, d := range healthyDecisions {
		if d.Action != ActionNone {
			return res, fmt.Errorf("online: smoke: healthy phase produced %v", d)
		}
	}

	// Phase 2: fail-slow disks. The stream drifts, a candidate is retrained
	// and promoted through the server's hot-reload — while concurrent
	// clients keep predicting. Nothing may fail with anything but the typed
	// overload shed.
	cfg.Log("phase 2: fail-slow disks (drift -> retrain -> promote)")
	faultRun, err := core.RunCtx(ctx, core.Scenario{
		Target:  smokeTarget(),
		MaxTime: 240 * sim.Second,
		Faults:  smokeFaults(baseRes.NTargets-1, 8),
	})
	if err != nil {
		return nil, fmt.Errorf("online: smoke fault run: %w", err)
	}
	faultStream := firstWindows(StreamFromRun(faultRun, labeler), 48)
	if len(faultStream.Windows) == 0 {
		return nil, errors.New("online: smoke fault run produced no windows")
	}

	var sample window.Matrix
	for _, mat := range baseRes.Windows {
		sample = mat
		break
	}
	hammerCtx, stopHammer := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Hammer; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for hammerCtx.Err() == nil {
				_, _, err := srv.Predict(hammerCtx, sample)
				switch {
				case err == nil:
					atomic.AddInt64(&res.HammerOK, 1)
				case errors.Is(err, context.Canceled):
				case errors.Is(err, serve.ErrOverloaded):
					atomic.AddInt64(&res.HammerShed, 1)
				default:
					atomic.AddInt64(&res.HammerErr, 1)
				}
			}
		}()
	}
	faultDecisions, rerr := loop.Replay(ctx, faultStream, labelDelay)
	stopHammer()
	wg.Wait()
	if rerr != nil {
		return nil, rerr
	}
	record("drift", faultDecisions)
	promoted := 0
	for _, d := range faultDecisions {
		if d.Action == ActionPromote {
			promoted++
		}
	}
	if promoted == 0 {
		return res, errors.New("online: smoke: fault phase promoted nothing")
	}
	if res.HammerErr > 0 {
		return res, fmt.Errorf("online: smoke: %d concurrent predictions failed hard during hot-reload", res.HammerErr)
	}
	if res.HammerOK == 0 {
		return res, errors.New("online: smoke: no concurrent predictions were answered")
	}
	cfg.Log("phase 2: %d promotion(s); hammer ok=%d shed=%d", promoted, res.HammerOK, res.HammerShed)

	// Phase 3: with an impossible gate margin, the same degraded stream must
	// produce a candidate that is trained, rejected, and never served.
	// The log prints the margin as Decision.String does: the accuracy a
	// candidate may give up.
	cfg.Log("phase 3: forced-reject drill (gate margin %g)", -shadow.RejectAll)
	loop.SetGateMargin(shadow.RejectAll)
	servedBefore := srv.Framework()
	rejectDecisions, err := loop.Replay(ctx, faultStream, labelDelay)
	if err != nil {
		return nil, err
	}
	record("reject", rejectDecisions)
	rejected := 0
	for _, d := range rejectDecisions {
		if d.Action == ActionPromote {
			return res, fmt.Errorf("online: smoke: promotion %v through an impossible gate", d)
		}
		if d.Action == ActionReject {
			rejected++
		}
	}
	if rejected == 0 {
		return res, errors.New("online: smoke: forced-reject phase rejected nothing")
	}
	if srv.Framework() != servedBefore {
		return res, errors.New("online: smoke: served framework changed despite rejection")
	}
	cfg.Log("phase 3: %d rejection(s), served model unchanged", rejected)

	return res, nil
}
