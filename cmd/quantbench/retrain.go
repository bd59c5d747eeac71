package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"quanterference/internal/core"
	"quanterference/internal/fault"
	"quanterference/internal/label"
	"quanterference/internal/ml"
	"quanterference/internal/monitor/window"
	"quanterference/internal/obs"
	"quanterference/internal/online"
	"quanterference/internal/serve"
	"quanterference/internal/sim"
	"quanterference/internal/workload/io500"
)

// The online-retrain streams and incumbent are online.SmokeEpisode's: an
// IOR easy-write target trained against two read-interference mixes, then a
// healthy stream and a fail-slow-disk stream. They do not depend on the seed;
// the seed drives each replay's Loop (reservoir sampling, retrain seeds), a
// different derived seed per replay, so every run measures the same spread
// of retrain costs. The decision timeline of the first replay is pinned for
// the paper seed.
const (
	retrainEpochs    = 25
	retrainWorkers   = 2
	labelDelay       = 2
	faultWindows     = 48
	replayDecisions  = 63
	replayTimeline   = "bc3358fe8da5c04d"
	replayRetrains   = 4
	replayPromotions = 4
	incumbentSeed    = paperSeed
	incumbentDigest  = "222762d578b9c007"
)

type retrainWorkload struct {
	seed             int64
	incumbent        *core.Framework
	refAcc           float64
	healthy, failing online.Stream
}

func smokeTarget() core.TargetSpec {
	return core.TargetSpec{
		Gen:   io500.New(io500.IorEasyWrite, io500.Params{Dir: "/tgt", Ranks: 2, EasyFileBytes: 2 << 30}),
		Nodes: []string{"c0"},
		Ranks: 2,
	}
}

func smokeRead(dir string, ranks int) []core.InterferenceSpec {
	return []core.InterferenceSpec{{
		Gen:   io500.New(io500.IorEasyRead, io500.Params{Dir: dir, Ranks: ranks, EasyFileBytes: 16 << 20}),
		Nodes: []string{"c1", "c2"},
		Ranks: ranks,
	}}
}

// firstWindows keeps a stream's first n windows.
func firstWindows(s online.Stream, n int) online.Stream {
	idxs := make([]int, 0, len(s.Windows))
	for idx := range s.Windows {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	if len(idxs) > n {
		idxs = idxs[:n]
	}
	out := online.Stream{Windows: map[int]window.Matrix{}, Degradations: map[int]float64{}}
	for _, idx := range idxs {
		out.Windows[idx] = s.Windows[idx]
		if deg, ok := s.Degradations[idx]; ok {
			out.Degradations[idx] = deg
		}
	}
	return out
}

func (w *retrainWorkload) setup(seed int64) error {
	w.seed = seed
	ds, err := core.CollectDatasetE(core.Scenario{Target: smokeTarget()}, []core.Variant{
		{Name: "read-light", Interference: smokeRead("/bgA", 2)},
		{Name: "read-heavy", Interference: smokeRead("/bgB", 6)},
	}, core.CollectorConfig{IncludeBaseline: true})
	if err != nil {
		return err
	}
	fw, conf, err := core.TrainFrameworkE(ds, core.FrameworkConfig{
		Seed: incumbentSeed, Train: ml.TrainConfig{Epochs: retrainEpochs, Workers: retrainWorkers},
	})
	if err != nil {
		return err
	}
	w.incumbent, w.refAcc = fw, conf.Accuracy()
	if d := ml.WeightsDigest(fw.ExportWeights()); d != incumbentDigest {
		return fmt.Errorf("incumbent weights digest %s, want %s", d, incumbentDigest)
	}

	ctx := context.Background()
	baseRes, err := core.RunCtx(ctx, core.Scenario{Target: smokeTarget()})
	if err != nil {
		return err
	}
	lab := label.New(baseRes.Records, sim.Second, 3)
	healthy, err := core.RunCtx(ctx, core.Scenario{Target: smokeTarget(), Interference: smokeRead("/bgA", 2)})
	if err != nil {
		return err
	}
	var faults []fault.Spec
	for i := 0; i < baseRes.NTargets-1; i++ {
		faults = append(faults, fault.Spec{
			Kind: fault.DiskSlow, Target: fmt.Sprintf("ost%d", i),
			Duration: 600 * sim.Second, Severity: 8,
		})
	}
	failing, err := core.RunCtx(ctx, core.Scenario{Target: smokeTarget(), MaxTime: 240 * sim.Second, Faults: faults})
	if err != nil {
		return err
	}
	w.healthy = online.StreamFromRun(healthy, lab)
	w.failing = firstWindows(online.StreamFromRun(failing, lab), faultWindows)
	if n := len(w.healthy.Windows) + len(w.failing.Windows); n != replayDecisions {
		return fmt.Errorf("streams hold %d windows, want %d", n, replayDecisions)
	}
	return nil
}

// replayOutcome is one replay's audit trail.
type replayOutcome struct {
	digest               string
	decisions            int
	retrains, promotions int
	healthyActions       int
	retrainNS            float64
	retrainCount         uint64
}

// replay serves a clone of the incumbent, wraps it in a fresh online.Loop
// seeded with loopSeed, and replays the healthy then the failing stream. The
// returned duration covers the two Replay calls only.
func (w *retrainWorkload) replay(loopSeed int64) (*replayOutcome, time.Duration, error) {
	fw, err := w.incumbent.Clone()
	if err != nil {
		return nil, 0, err
	}
	srv := serve.New(fw, serve.Config{})
	defer srv.Shutdown(context.Background())
	sink := obs.New()
	loop, err := online.NewLoop(srv, online.Config{
		Seed:        loopSeed,
		RefAccuracy: w.refAcc,
		Train:       ml.TrainConfig{Epochs: retrainEpochs, Workers: retrainWorkers},
		Drift:       online.DriftConfig{MinEffect: 1.2, FeatureFrac: 0.1},
		Sink:        sink,
	})
	if err != nil {
		return nil, 0, err
	}
	ctx := context.Background()
	out := &replayOutcome{}
	h := sha256.New()
	start := time.Now()
	var elapsed time.Duration
	for i, s := range []online.Stream{w.healthy, w.failing} {
		ds, err := loop.Replay(ctx, s, labelDelay)
		if err != nil {
			return nil, 0, err
		}
		if i == 1 {
			elapsed = time.Since(start)
		}
		for _, d := range ds {
			fmt.Fprintln(h, d.String())
			out.decisions++
			if d.Gate != nil {
				out.retrains++
			}
			if d.Action == online.ActionPromote {
				out.promotions++
			}
			if i == 0 && d.Action != online.ActionNone {
				out.healthyActions++
			}
		}
	}
	out.digest = hex.EncodeToString(h.Sum(nil))[:16]
	for _, hv := range sink.Snapshot().Histograms {
		if hv.Key.Name == "retrain_ns" {
			out.retrainNS, out.retrainCount = hv.Sum, hv.Count
		}
	}
	return out, elapsed, nil
}

// replaySeed derives replay r's Loop seed from the run seed.
func replaySeed(seed int64, r int) int64 {
	return int64(splitmix(uint64(seed)*0x100000001b3 + uint64(r)))
}

func (w *retrainWorkload) measure(budget time.Duration, traced bool) (*phase, error) {
	ph := &phase{layers: map[string]float64{}}
	var first *replayOutcome
	var retrains, promotions []float64
	var retrainNS float64
	var retrainCount uint64
	start := time.Now()
	for r := 0; time.Since(start) < budget || r == 0; r++ {
		ph.attempted++
		out, d, err := w.replay(replaySeed(w.seed, r))
		if err != nil {
			ph.fail(err)
			continue
		}
		ph.lat = append(ph.lat, ms(d))
		ph.ops++
		retrains = append(retrains, float64(out.retrains))
		promotions = append(promotions, float64(out.promotions))
		retrainNS += out.retrainNS
		retrainCount += out.retrainCount
		switch {
		case out.decisions != replayDecisions:
			ph.fail(fmt.Errorf("replay %d made %d decisions, want %d", r, out.decisions, replayDecisions))
		case out.healthyActions != 0:
			ph.fail(fmt.Errorf("replay %d acted %d times on the healthy stream", r, out.healthyActions))
		case out.retrains == 0 || out.promotions == 0:
			ph.fail(fmt.Errorf("replay %d: %d retrains, %d promotions on the failing stream", r, out.retrains, out.promotions))
		}
		if r == 0 {
			first = out
		}
	}
	ph.elapsed = time.Since(start)
	if first != nil {
		// Same seed, same decisions: replay the first Loop seed again.
		again, _, err := w.replay(replaySeed(w.seed, 0))
		switch {
		case err != nil:
			ph.check(err)
		case again.digest != first.digest:
			ph.check(fmt.Errorf("replaying seed 0 again gave timeline %s, first gave %s", again.digest, first.digest))
		}
		if w.seed == paperSeed && (first.digest != replayTimeline ||
			first.retrains != replayRetrains || first.promotions != replayPromotions) {
			ph.check(fmt.Errorf("first replay: timeline %s, %d retrains, %d promotions; want %s, %d, %d",
				first.digest, first.retrains, first.promotions, replayTimeline, replayRetrains, replayPromotions))
		}
	}
	if traced {
		ph.layers["online.retrains"] = mean(retrains)
		ph.layers["online.promotions"] = mean(promotions)
		ph.layers["online.retrain_ms"] = ratio(retrainNS, float64(retrainCount)) / 1e6
	}
	return ph, nil
}

func (w *retrainWorkload) close() {}

// splitmix is the SplitMix64 finalizer, used to derive independent seeds.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
