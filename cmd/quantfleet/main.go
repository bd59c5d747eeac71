// Command quantfleet exercises the fleet coordinator (internal/fleet): N
// serve replicas behind seeded rendezvous routing with failover, federated
// reservoir merge, and rolling promotion with rollback.
//
// Usage:
//
//	quantfleet -smoke                      # deterministic 3-replica episode
//	quantfleet -shadow                     # shadow-gated promotion episode
//	quantfleet -status name=url [name=url ...]  # aggregate fleet /v1/healthz
//
// -smoke runs the full fleet episode in-process — three replicas over
// httptest listeners, a mid-episode kill with zero dropped requests, a
// failed promotion that rolls back, a restart with reservoir restore, an
// order-independent merged retrain, and a clean fleet-wide rollout — and
// prints the coordinator's decision timeline. The output contains replica
// names and weight digests only (no ports, no timestamps), so two runs with
// the same seed are byte-identical; `make fleet-smoke` compares two runs
// with each other and with testdata/smoke_golden.txt.
//
// -shadow runs the shadow-evaluation episode: three replicas serve a weak
// champion with one shared shadow evaluator tapped into every batcher, three
// challengers are scored on the mirrored live traffic as delayed labels
// arrive, and the N-way gate verdict drives fleet.PromoteShadowed — exactly
// the margin-winning challenger rolls out fleet-wide. A second epoch under a
// forced-reject margin (the rollback drill) keeps the new incumbent. Output
// is digests and scores only; `make shadow-smoke` compares two runs with
// each other and with testdata/shadow_golden.txt.
//
// -status treats each argument as name=url (bare URLs get r0, r1, ...
// names), probes every replica's /v1/healthz, and prints the aggregated
// fleet view, including each replica's last routing-failure cause when the
// coordinator has seen one.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"quanterference/internal/core"
	"quanterference/internal/dataset"
	"quanterference/internal/fleet"
	"quanterference/internal/ml"
	"quanterference/internal/monitor/window"
	"quanterference/internal/obs"
	"quanterference/internal/online"
	"quanterference/internal/serve"
	shadowpkg "quanterference/internal/shadow"
	"quanterference/internal/sim"
)

var (
	smoke    = flag.Bool("smoke", false, "run the deterministic in-process 3-replica episode")
	shadow   = flag.Bool("shadow", false, "run the deterministic shadow-gated promotion episode")
	status   = flag.Bool("status", false, "aggregate /v1/healthz across the given name=url replicas")
	seed     = flag.Int64("seed", 1, "seed for training, routing, and the episode's request stream")
	requests = flag.Int("requests", 24, "requests to route during the smoke episode")
)

func main() {
	flag.Parse()
	switch {
	case *smoke:
		if err := runSmoke(os.Stdout, *seed, *requests); err != nil {
			fatal(err)
		}
	case *shadow:
		if err := runShadow(os.Stdout, *seed); err != nil {
			fatal(err)
		}
	case *status:
		if err := runStatus(flag.Args()); err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "quantfleet: pass -smoke, -shadow, or -status (see -help)")
		os.Exit(2)
	}
}

// replicaCount is fixed at three: the smallest fleet where a mid-rollout
// failure leaves both promoted and untouched replicas to verify against.
const replicaCount = 3

func runSmoke(w io.Writer, seed int64, requests int) error {
	ctx := context.Background()
	fmt.Fprintf(w, "fleet-smoke: %d replicas, seed %d\n", replicaCount, seed)

	ep, err := buildEpisode(train(corpus(seed), seed, 5), seed, serve.Config{}, true)
	if err != nil {
		return err
	}
	defer ep.close()
	incDigest := ml.WeightsDigest(ep.master.ExportWeights())
	fmt.Fprintln(w, "incumbent", incDigest)

	// Each replica labels its own stream slice into its reservoir.
	feedLoops(ep, 20)

	// Persist every reservoir before anything goes wrong.
	dir, err := os.MkdirTemp("", "fleet-smoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := ep.coord.SaveBuffers(dir); err != nil {
		return err
	}

	// Route the request stream, killing r1 a third of the way through: its
	// keys fail over and nothing is dropped.
	rng := sim.NewRNG(seed ^ 0x5710)
	kill := requests / 3
	for i := 0; i < requests; i++ {
		if i == kill {
			ep.https[1].Close()
			_ = ep.servers[1].Shutdown(ctx)
			ep.coord.Note("kill r1")
		}
		if _, err := ep.coord.Predict(ctx, fmt.Sprintf("w%03d", i), matrix(rng, 0)); err != nil {
			return fmt.Errorf("request %d dropped: %w", i, err)
		}
	}

	// A rollout while r1 is dead must halt and roll the promoted prefix
	// back to the incumbent digest.
	deadCand := train(mustMerged(ep), seed+100, 5)
	if err := ep.coord.Promote(ctx, deadCand); err == nil {
		return fmt.Errorf("promotion with a dead replica unexpectedly succeeded")
	}
	for i, s := range ep.servers {
		if got := s.ModelDigest(); got != incDigest {
			return fmt.Errorf("replica %s serves %s after rollback, want incumbent %s", ep.names[i], got, incDigest)
		}
	}

	// Restart r1 under the same identity and restore every reservoir from
	// disk; the fleet's merged corpus must digest exactly as before the kill.
	if err := ep.restart(1); err != nil {
		return err
	}
	if err := ep.coord.LoadBuffers(dir); err != nil {
		return err
	}
	merged, err := ep.coord.MergedDataset()
	if err != nil {
		return err
	}
	var reversed []*dataset.Dataset
	for i := len(ep.loops) - 1; i >= 0; i-- {
		reversed = append(reversed, ep.loops[i].ExportBuffer(ep.names[i]))
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
	if err := ep.coord.Promote(ctx, cand); err != nil {
		return fmt.Errorf("final rollout: %w", err)
	}

	for _, ev := range ep.coord.Timeline() {
		fmt.Fprintln(w, ev)
	}
	st := ep.coord.Status(ctx)
	fmt.Fprintf(w, "fleet consistent: %v %s model %s\n", st.Consistent, st.APIVersion, st.ModelDigest)
	fmt.Fprintf(w, "accepted %d/%d dropped %d\n", ep.coord.Accepted(), requests, ep.coord.Dropped())
	if st.Healthy != replicaCount || !st.Consistent || ep.coord.Dropped() != 0 {
		return fmt.Errorf("episode did not converge: %d healthy, consistent %v, %d dropped",
			st.Healthy, st.Consistent, ep.coord.Dropped())
	}
	fmt.Fprintln(w, "fleet-smoke: OK")
	return nil
}

// shadowRequests sizes each shadow epoch: enough labeled traffic to clear
// the gate's 32-sample minimum with a determinate accuracy lead.
const shadowRequests = 96

// runShadow is the shadow-evaluation episode: a weak champion serves a
// 3-replica fleet while three challengers are scored on the mirrored live
// traffic, and the gate verdict drives the fleet-wide rollout. A second
// epoch under a forced-reject margin keeps the new incumbent.
func runShadow(w io.Writer, seed int64) error {
	ctx := context.Background()
	fmt.Fprintf(w, "shadow-smoke: %d replicas, 3 challengers, seed %d\n", replicaCount, seed)

	// Weak champion: one epoch on the shared corpus. Challengers train on the
	// same corpus at different depths and seeds; the gate picks whichever
	// actually wins on the live mirrored traffic.
	data := corpus(seed)
	champion := train(data, seed, 1)
	champDigest := ml.WeightsDigest(champion.ExportWeights())
	fmt.Fprintln(w, "champion", champDigest)
	challengers := []struct {
		name   string
		epochs int
		fw     *core.Framework
	}{
		{name: "c0", epochs: 2},
		{name: "c1", epochs: 8},
		{name: "c2", epochs: 3},
	}
	cands := make(map[string]*core.Framework, len(challengers))
	for i := range challengers {
		c := &challengers[i]
		c.fw = train(data, seed+int64(i)+1, c.epochs)
		cands[c.name] = c.fw
		fmt.Fprintf(w, "challenger %s epochs %d %s\n", c.name, c.epochs, ml.WeightsDigest(c.fw.ExportWeights()))
	}

	// One shared evaluator tapped into every replica's batcher, sharing one
	// sink so the mirror counters surface on each replica's /v1/stats.
	sink := obs.New()
	ev, err := shadowpkg.New(champion, shadowpkg.Config{Seed: seed, QueueCap: 4 * shadowRequests, Sink: sink})
	if err != nil {
		return err
	}
	for _, c := range challengers {
		if err := ev.AddChallenger(c.name, c.fw); err != nil {
			return err
		}
	}

	ep, err := buildEpisode(champion, seed, serve.Config{Shadow: ev, Sink: sink}, false)
	if err != nil {
		return err
	}
	defer ep.close()
	coord := ep.coord

	// Epoch 1: route labeled traffic through the fleet — every reply is
	// mirrored by the answering replica's batcher — then join the delayed
	// labels and read the verdict.
	rng := sim.NewRNG(seed ^ 0x5ade)
	if err := shadowEpochTraffic(ctx, coord, ev, rng, 0, shadowRequests); err != nil {
		return err
	}
	printScoreboard(w, ev)

	verdict := ev.Verdict()
	if !verdict.Promote {
		return fmt.Errorf("no challenger cleared the gate (champion %.4f, best %.4f); episode expects a winner",
			verdict.IncumbentAccuracy, verdict.CandidateAccuracy)
	}
	fmt.Fprintf(w, "verdict: promote %s (lead %.4f over champion %.4f, margin %.2f, n %d)\n",
		verdict.Winner, verdict.CandidateAccuracy, verdict.IncumbentAccuracy, verdict.Margin, verdict.Holdout)
	if err := coord.PromoteShadowed(ctx, verdict, cands); err != nil {
		return fmt.Errorf("shadow-gated rollout: %w", err)
	}
	winDigest := ml.WeightsDigest(cands[verdict.Winner].ExportWeights())
	for i, s := range ep.servers {
		if got := s.ModelDigest(); got != winDigest {
			return fmt.Errorf("replica %s serves %s after rollout, want winner %s", ep.names[i], got, winDigest)
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
	ev.SetMargin(2) // impossible bar: force-reject every challenger
	if err := shadowEpochTraffic(ctx, coord, ev, rng, shadowRequests, shadowRequests); err != nil {
		return err
	}
	printScoreboard(w, ev)
	drillVerdict := ev.Verdict()
	if err := coord.PromoteShadowed(ctx, drillVerdict, map[string]*core.Framework{"drill": drill}); !errors.Is(err, fleet.ErrShadowRejected) {
		return fmt.Errorf("forced-reject drill promoted anyway: %v", err)
	}
	fmt.Fprintln(w, "verdict: keep incumbent (forced-reject margin)")
	for i, s := range ep.servers {
		if got := s.ModelDigest(); got != winDigest {
			return fmt.Errorf("replica %s serves %s after the drill, want incumbent %s", ep.names[i], got, winDigest)
		}
	}

	fmt.Fprintln(w, "timeline:")
	for _, e := range coord.Timeline() {
		fmt.Fprintln(w, e)
	}
	st := ev.Status()
	fmt.Fprintf(w, "mirrored %d dropped %d labeled %d unmatched %d\n", st.Mirrored, st.Dropped, st.Labeled, st.Unmatched)
	if st.Dropped != 0 || st.Unmatched != 0 || coord.Dropped() != 0 {
		return fmt.Errorf("episode shed traffic: %d mirror drops, %d unmatched labels, %d route drops",
			st.Dropped, st.Unmatched, coord.Dropped())
	}
	fmt.Fprintln(w, "shadow-smoke: OK")
	return nil
}

// shadowEpochTraffic routes n sequentially keyed requests through the fleet
// and immediately joins each one's delayed label: even windows are healthy
// (degradation 1), odd are degraded (degradation 3), matching the corpus.
func shadowEpochTraffic(ctx context.Context, coord *fleet.Coordinator, ev *shadowpkg.Evaluator, rng *sim.RNG, base, n int) error {
	for i := 0; i < n; i++ {
		mat := matrix(rng, 2*float64(i%2))
		if _, err := coord.Predict(ctx, fmt.Sprintf("w%03d", base+i), mat); err != nil {
			return fmt.Errorf("request %d dropped: %w", base+i, err)
		}
		if !ev.Label(mat, 1+2*float64(i%2)) {
			return fmt.Errorf("request %d was answered but not mirrored", base+i)
		}
	}
	return nil
}

// printScoreboard prints every candidate's live score, champion first, in
// registration order — digest-free and deterministic for byte comparison.
func printScoreboard(w io.Writer, ev *shadowpkg.Evaluator) {
	st := ev.Status()
	fmt.Fprintln(w, "scoreboard:")
	rows := append([]serve.ShadowCandidate{st.Champion}, st.Challengers...)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-8s acc %.4f ce %.4f n %d\n", r.Name, r.Accuracy, r.CE, r.Samples)
	}
}

// episode is one in-process fleet: replicaCount servers on clones of the
// master behind a seeded coordinator, with the handles the harness needs to
// kill, restart, and tear them down.
type episode struct {
	coord     *fleet.Coordinator
	master    *core.Framework // pristine incumbent the fleet serves clones of
	seed      int64
	scfg      serve.Config // every replica's server config
	withLoops bool         // each replica runs an online loop
	servers   []*serve.Server
	https     []*httptest.Server
	loops     []*online.Loop // nil entries without loops
	names     []string
}

// buildEpisode boots replicas r0, r1, ... serving clones of master, each
// with server config scfg and, when withLoops, an online loop.
func buildEpisode(master *core.Framework, seed int64, scfg serve.Config, withLoops bool) (*episode, error) {
	ep := &episode{master: master, seed: seed, scfg: scfg, withLoops: withLoops}
	replicas := make([]*fleet.Replica, replicaCount)
	for i := range replicas {
		name := fmt.Sprintf("r%d", i)
		s, ts, loop, err := ep.bootReplica(i)
		if err != nil {
			ep.close()
			return nil, err
		}
		ep.servers = append(ep.servers, s)
		ep.https = append(ep.https, ts)
		ep.loops = append(ep.loops, loop)
		ep.names = append(ep.names, name)
		replicas[i] = fleet.NewReplica(name, s, serve.NewClient(ts.URL), loop)
	}
	var err error
	if ep.coord, err = fleet.New(fleet.Config{Seed: seed}, replicas...); err != nil {
		ep.close()
		return nil, err
	}
	return ep, nil
}

// bootReplica starts serving instance i on a fresh clone of the master.
func (ep *episode) bootReplica(i int) (*serve.Server, *httptest.Server, *online.Loop, error) {
	fw, err := ep.master.Clone()
	if err != nil {
		return nil, nil, nil, err
	}
	s := serve.New(fw, ep.scfg)
	ts := httptest.NewServer(s.Handler())
	if !ep.withLoops {
		return s, ts, nil, nil
	}
	loop, err := online.NewLoop(s, online.Config{Seed: ep.seed + int64(i)})
	if err != nil {
		ts.Close()
		return nil, nil, nil, err
	}
	return s, ts, loop, nil
}

// restart boots a fresh server (and empty loop) for slot i and rebinds it
// into the coordinator under its old name.
func (ep *episode) restart(i int) error {
	s, ts, loop, err := ep.bootReplica(i)
	if err != nil {
		return err
	}
	ep.servers[i], ep.https[i], ep.loops[i] = s, ts, loop
	return ep.coord.Rebind(ep.names[i], s, serve.NewClient(ts.URL), loop)
}

// close stops every replica's listener and server.
func (ep *episode) close() {
	for _, ts := range ep.https {
		ts.Close()
	}
	for _, s := range ep.servers {
		_ = s.Shutdown(context.Background())
	}
}

// feedLoops offers nEach deterministic labeled windows to every replica's
// loop; alternating degradation keeps both classes represented.
func feedLoops(ep *episode, nEach int) {
	for i, l := range ep.loops {
		rng := sim.NewRNG(1000 + int64(i))
		for w := 0; w < nEach; w++ {
			mat := matrix(rng, 0)
			l.OfferWindow(mat)
			l.OfferLabeled(online.Example{Window: w, Matrix: mat, Degradation: 1 + 2*float64(w%2)})
		}
	}
}

func mustMerged(ep *episode) *dataset.Dataset {
	ds, err := ep.coord.MergedDataset()
	if err != nil {
		panic(err)
	}
	return ds
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

// runStatus probes each name=url replica and prints the aggregate view.
func runStatus(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("quantfleet: -status needs at least one name=url or url argument")
	}
	replicas := make([]*fleet.Replica, len(args))
	for i, arg := range args {
		name, url := fmt.Sprintf("r%d", i), arg
		if eq := strings.IndexByte(arg, '='); eq > 0 && !strings.HasPrefix(arg, "http") {
			name, url = arg[:eq], arg[eq+1:]
		}
		replicas[i] = fleet.NewReplica(name, nil, serve.NewClient(url, serve.WithTimeout(5*time.Second)), nil)
	}
	c, err := fleet.New(fleet.Config{}, replicas...)
	if err != nil {
		return err
	}
	st := c.Status(context.Background())
	for _, r := range st.Replicas {
		// A one-shot probe has no routing history; LastFailure fills in when
		// a long-lived coordinator (tests, embedded use) calls Status.
		suffix := ""
		if r.LastFailure != "" {
			suffix = " last-failure " + r.LastFailure
		}
		if !r.Healthy {
			fmt.Printf("%-12s DOWN (%s)%s\n", r.Name, r.Cause, suffix)
			continue
		}
		fmt.Printf("%-12s ok %s model %s %dx%d/%d classes%s\n", r.Name,
			r.Health.APIVersion, r.Health.ModelDigest, r.Health.Targets, r.Health.Features, r.Health.Classes, suffix)
	}
	fmt.Printf("healthy %d/%d consistent %v\n", st.Healthy, len(st.Replicas), st.Consistent)
	if !st.Consistent {
		return fmt.Errorf("quantfleet: fleet is not consistent")
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "quantfleet:", err)
	os.Exit(1)
}
