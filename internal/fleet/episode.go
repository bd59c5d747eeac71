package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"quanterference/internal/core"
	"quanterference/internal/dataset"
	"quanterference/internal/ml"
	"quanterference/internal/monitor/window"
	"quanterference/internal/obs"
	"quanterference/internal/online"
	"quanterference/internal/serve"
	"quanterference/internal/shadow"
	"quanterference/internal/sim"
)

// episodeReplicas is fixed at three: the smallest fleet where a mid-rollout
// failure leaves both promoted and untouched replicas to verify against.
const episodeReplicas = 3

// SmokeEpisode runs the deterministic fleet episode on three in-process
// replicas and writes its report to w: the request stream routed with r1
// killed a third of the way through (zero dropped requests), a failed
// promotion that rolls back, a restart with reservoir restore, an
// order-independent merged retrain, and a clean fleet-wide rollout. The
// report holds replica names and weight digests only (no ports, no
// timestamps), so the same seed writes the same bytes;
// testdata/smoke_golden.txt pins seed 1 with 24 requests.
func SmokeEpisode(ctx context.Context, w io.Writer, seed int64, requests int) error {
	fmt.Fprintf(w, "fleet-smoke: %d replicas, seed %d\n", episodeReplicas, seed)

	master := train(corpus(seed), seed, 5)
	l, err := StartLocal(master, seed, true, make([]serve.Config, episodeReplicas)...)
	if err != nil {
		return err
	}
	defer l.Close()
	incDigest := ml.WeightsDigest(master.ExportWeights())
	fmt.Fprintln(w, "incumbent", incDigest)

	// Each replica labels its own stream slice into its reservoir.
	feedLoops(l.Loops, 20)

	// Persist every reservoir before anything goes wrong.
	dir, err := os.MkdirTemp("", "fleet-smoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := l.Coord.SaveBuffers(dir); err != nil {
		return err
	}

	// Route the request stream, killing r1 a third of the way through: its
	// keys fail over and nothing is dropped.
	rng := sim.NewRNG(seed ^ 0x5710)
	for i := 0; i < requests; i++ {
		if i == requests/3 {
			l.Kill(1)
		}
		if _, err := l.Coord.Predict(ctx, fmt.Sprintf("w%03d", i), matrix(rng, 0)); err != nil {
			return fmt.Errorf("request %d dropped: %w", i, err)
		}
	}

	// A rollout while r1 is dead must halt and roll the promoted prefix
	// back to the incumbent digest.
	merged, err := l.Coord.MergedDataset()
	if err != nil {
		return err
	}
	if err := l.Coord.Promote(ctx, train(merged, seed+100, 5)); err == nil {
		return errors.New("promotion with a dead replica unexpectedly succeeded")
	}
	for i, s := range l.Servers {
		if got := s.ModelDigest(); got != incDigest {
			return fmt.Errorf("replica %s serves %s after rollback, want incumbent %s", l.Names[i], got, incDigest)
		}
	}

	// Restart r1 under the same identity and restore every reservoir from
	// disk; the fleet's merged corpus must digest exactly as before the kill.
	if err := l.Restart(1); err != nil {
		return err
	}
	if err := l.Coord.LoadBuffers(dir); err != nil {
		return err
	}
	if merged, err = l.Coord.MergedDataset(); err != nil {
		return err
	}
	var reversed []*dataset.Dataset
	for i := len(l.Loops) - 1; i >= 0; i-- {
		reversed = append(reversed, l.Loops[i].ExportBuffer(l.Names[i]))
	}
	back, err := dataset.MergeAll(reversed...)
	if err != nil {
		return err
	}
	orderOK := "ok"
	if merged.Digest() != back.Digest() {
		orderOK = "DIVERGED"
	}
	fmt.Fprintf(w, "merged %d samples digest %s (order-independent: %s)\n", merged.Len(), merged.Digest(), orderOK)

	// Retrain on the fleet's combined history and roll it out cleanly.
	cand := train(merged, seed+200, 5)
	fmt.Fprintln(w, "retrained candidate", ml.WeightsDigest(cand.ExportWeights()))
	if err := l.Coord.Promote(ctx, cand); err != nil {
		return fmt.Errorf("final rollout: %w", err)
	}

	for _, ev := range l.Coord.Timeline() {
		fmt.Fprintln(w, ev)
	}
	st := l.Coord.Status(ctx)
	fmt.Fprintf(w, "fleet consistent: %v %s model %s\n", st.Consistent, st.APIVersion, st.ModelDigest)
	fmt.Fprintf(w, "accepted %d/%d dropped %d\n", l.Coord.Accepted(), requests, l.Coord.Dropped())
	if st.Healthy != episodeReplicas || !st.Consistent || l.Coord.Dropped() != 0 {
		return fmt.Errorf("episode did not converge: %d healthy, consistent %v, %d dropped",
			st.Healthy, st.Consistent, l.Coord.Dropped())
	}
	fmt.Fprintln(w, "fleet-smoke: OK")
	return nil
}

// shadowRequests sizes each shadow epoch: enough labeled traffic to clear
// the gate's 32-sample minimum with a determinate accuracy lead.
const shadowRequests = 96

// ShadowEpisode runs the shadow-evaluation episode and writes its report to
// w: a weak champion serves three in-process replicas with one shared
// shadow evaluator tapped into every batcher, three challengers are scored
// on the mirrored live traffic as delayed labels arrive, and the N-way gate
// verdict drives PromoteShadowed, so exactly the margin-winning challenger
// rolls out fleet-wide. A second epoch under a forced-reject margin (the
// rollback drill) keeps the new incumbent. The report holds digests and
// scores only; testdata/shadow_golden.txt pins seed 1.
func ShadowEpisode(ctx context.Context, w io.Writer, seed int64) error {
	fmt.Fprintf(w, "shadow-smoke: %d replicas, 3 challengers, seed %d\n", episodeReplicas, seed)

	// Weak champion: one epoch on the shared corpus. Challengers train on the
	// same corpus at different depths and seeds; the gate picks whichever
	// actually wins on the live mirrored traffic.
	data := corpus(seed)
	champion := train(data, seed, 1)
	fmt.Fprintln(w, "champion", ml.WeightsDigest(champion.ExportWeights()))

	// One shared evaluator tapped into every replica's batcher, sharing one
	// sink so the mirror counters surface on each replica's /v1/stats.
	sink := obs.New()
	ev, err := shadow.New(champion, shadow.Config{Seed: seed, QueueCap: 4 * shadowRequests, Sink: sink})
	if err != nil {
		return err
	}
	cands := make(map[string]*core.Framework)
	for i, epochs := range []int{2, 8, 3} {
		name := fmt.Sprintf("c%d", i)
		cands[name] = train(data, seed+int64(i)+1, epochs)
		fmt.Fprintf(w, "challenger %s epochs %d %s\n", name, epochs, ml.WeightsDigest(cands[name].ExportWeights()))
		if err := ev.AddChallenger(name, cands[name]); err != nil {
			return err
		}
	}

	cfgs := make([]serve.Config, episodeReplicas)
	for i := range cfgs {
		cfgs[i] = serve.Config{Shadow: ev, Sink: sink}
	}
	l, err := StartLocal(champion, seed, false, cfgs...)
	if err != nil {
		return err
	}
	defer l.Close()

	// Epoch 1: route labeled traffic through the fleet — every reply is
	// mirrored by the answering replica's batcher — then join the delayed
	// labels and read the verdict.
	rng := sim.NewRNG(seed ^ 0x5ade)
	if err := shadowEpoch(ctx, w, l.Coord, ev, rng, 0); err != nil {
		return err
	}

	verdict := ev.Verdict()
	if !verdict.Promote {
		return fmt.Errorf("no challenger cleared the gate (champion %.4f, best %.4f); episode expects a winner",
			verdict.IncumbentAccuracy, verdict.CandidateAccuracy)
	}
	fmt.Fprintf(w, "verdict: promote %s (lead %.4f over champion %.4f, margin %.2f, n %d)\n",
		verdict.Winner, verdict.CandidateAccuracy, verdict.IncumbentAccuracy, verdict.Margin, verdict.Samples)
	if err := l.Coord.PromoteShadowed(ctx, verdict, cands); err != nil {
		return fmt.Errorf("shadow-gated rollout: %w", err)
	}
	winDigest := ml.WeightsDigest(cands[verdict.Winner].ExportWeights())
	for i, s := range l.Servers {
		if got := s.ModelDigest(); got != winDigest {
			return fmt.Errorf("replica %s serves %s after rollout, want winner %s", l.Names[i], got, winDigest)
		}
	}
	fmt.Fprintf(w, "promoted %s fleet-wide: %s\n", verdict.Winner, winDigest)

	// Epoch 2: the winner is the new champion; fresh challengers are scored
	// under a forced-reject margin (the drill), so the incumbent must hold.
	if err := ev.Reset(cands[verdict.Winner]); err != nil {
		return err
	}
	drill := train(data, seed+10, 8)
	if err := ev.AddChallenger("drill", drill); err != nil {
		return err
	}
	ev.SetMargin(shadow.RejectAll)
	if err := shadowEpoch(ctx, w, l.Coord, ev, rng, shadowRequests); err != nil {
		return err
	}
	drillVerdict := ev.Verdict()
	if err := l.Coord.PromoteShadowed(ctx, drillVerdict, map[string]*core.Framework{"drill": drill}); !errors.Is(err, ErrShadowRejected) {
		return fmt.Errorf("forced-reject drill promoted anyway: %v", err)
	}
	fmt.Fprintln(w, "verdict: keep incumbent (forced-reject margin)")
	for i, s := range l.Servers {
		if got := s.ModelDigest(); got != winDigest {
			return fmt.Errorf("replica %s serves %s after the drill, want incumbent %s", l.Names[i], got, winDigest)
		}
	}

	fmt.Fprintln(w, "timeline:")
	for _, e := range l.Coord.Timeline() {
		fmt.Fprintln(w, e)
	}
	st := ev.Status()
	fmt.Fprintf(w, "mirrored %d dropped %d labeled %d unmatched %d\n", st.Mirrored, st.Dropped, st.Labeled, st.Unmatched)
	if st.Dropped != 0 || st.Unmatched != 0 || l.Coord.Dropped() != 0 {
		return fmt.Errorf("episode shed traffic: %d mirror drops, %d unmatched labels, %d route drops",
			st.Dropped, st.Unmatched, l.Coord.Dropped())
	}
	fmt.Fprintln(w, "shadow-smoke: OK")
	return nil
}

// shadowEpoch routes shadowRequests sequentially keyed requests through the
// fleet, immediately joins each one's delayed label (even windows are
// healthy, degradation 1; odd are degraded, degradation 3, matching the
// corpus) and prints the scoreboard: every candidate's live score,
// champion first, in registration order, digest-free and deterministic.
func shadowEpoch(ctx context.Context, w io.Writer, coord *Coordinator, ev *shadow.Evaluator, rng *sim.RNG, base int) error {
	for i := 0; i < shadowRequests; i++ {
		mat := matrix(rng, 2*float64(i%2))
		if _, err := coord.Predict(ctx, fmt.Sprintf("w%03d", base+i), mat); err != nil {
			return fmt.Errorf("request %d dropped: %w", base+i, err)
		}
		if !ev.Label(mat, 1+2*float64(i%2)) {
			return fmt.Errorf("request %d was answered but not mirrored", base+i)
		}
	}
	st := ev.Status()
	fmt.Fprintln(w, "scoreboard:")
	for _, r := range append([]shadow.Score{st.Champion}, st.Challengers...) {
		fmt.Fprintf(w, "  %-8s acc %.4f ce %.4f n %d\n", r.Name, r.Accuracy, r.CE, r.Samples)
	}
	return nil
}

// feedLoops offers nEach deterministic labeled windows to every loop;
// alternating degradation keeps both classes represented.
func feedLoops(loops []*online.Loop, nEach int) {
	for i, l := range loops {
		rng := sim.NewRNG(1000 + int64(i))
		for w := 0; w < nEach; w++ {
			mat := matrix(rng, 0)
			l.OfferWindow(mat)
			l.OfferLabeled(online.Example{Window: w, Matrix: mat, Degradation: 1 + 2*float64(w%2)})
		}
	}
}

const nTargets, nFeat = 3, 5

// corpus is both episodes' 64-sample synthetic training set (same shape as
// quantserve -smoke): even samples healthy (degradation 1), odd ones
// degraded (degradation 3) with their features shifted by 2.
func corpus(seed int64) *dataset.Dataset {
	names := make([]string, nFeat)
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i)
	}
	ds := dataset.New(names, nTargets, 2)
	rng := sim.NewRNG(seed)
	for i := 0; i < 64; i++ {
		ds.Add(&dataset.Sample{Label: i % 2, Degradation: 1 + 2*float64(i%2), Vectors: matrix(rng, 2*float64(i%2))})
	}
	return ds
}

// train trains one candidate at the given depth; same corpus + same seed +
// same depth = bit-identical weights, which is what the byte-compared
// episodes pin. It panics on failure (the episode corpora are known-good).
func train(ds *dataset.Dataset, seed int64, epochs int) *core.Framework {
	fw, _, err := core.TrainFrameworkE(ds, core.FrameworkConfig{Seed: seed, Train: ml.TrainConfig{Epochs: epochs}})
	if err != nil {
		panic(err)
	}
	return fw
}

// matrix draws one synthetic window of standard-normal features shifted by
// shift.
func matrix(rng *sim.RNG, shift float64) window.Matrix {
	mat := make(window.Matrix, nTargets)
	for t := range mat {
		row := make([]float64, nFeat)
		for f := range row {
			row[f] = rng.NormFloat64() + shift
		}
		mat[t] = row
	}
	return mat
}
