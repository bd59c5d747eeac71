package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"quanterference/internal/core"
	"quanterference/internal/dataset"
	"quanterference/internal/forecast"
	"quanterference/internal/ml"
	"quanterference/internal/monitor/window"
	"quanterference/internal/online"
	"quanterference/internal/serve"
	"quanterference/internal/sim"
)

const (
	testTargets = 3
	testFeat    = 5
)

// trainedFramework trains a tiny 2-class framework on synthetic data; seed
// varies the weights, so two different seeds give two distinct digests.
func trainedFramework(tb testing.TB, seed int64) *core.Framework {
	tb.Helper()
	names := make([]string, testFeat)
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i)
	}
	ds := dataset.New(names, testTargets, 2)
	rng := sim.NewRNG(seed)
	for i := 0; i < 64; i++ {
		vecs := make([][]float64, testTargets)
		for t := range vecs {
			v := make([]float64, testFeat)
			for f := range v {
				v[f] = rng.NormFloat64() + 2*float64(i%2)
			}
			vecs[t] = v
		}
		ds.Add(&dataset.Sample{Label: i % 2, Degradation: 1 + 2*float64(i%2), Vectors: vecs})
	}
	fw, _, err := core.TrainFrameworkE(ds, core.FrameworkConfig{Seed: seed, Train: ml.TrainConfig{Epochs: 5}})
	if err != nil {
		tb.Fatal(err)
	}
	return fw
}

func trainedForecaster(tb testing.TB, seed int64) *forecast.Forecaster {
	tb.Helper()
	names := make([]string, testFeat)
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i)
	}
	ds := dataset.New(names, testTargets, 2)
	rng := sim.NewRNG(seed)
	for r := 0; r < 4; r++ {
		for w := 0; w < 16; w++ {
			degraded := w >= 10
			vecs := make([][]float64, testTargets)
			for t := range vecs {
				v := make([]float64, testFeat)
				for f := range v {
					v[f] = 0.2*float64(w) + rng.NormFloat64()
					if degraded {
						v[f] += 3
					}
				}
				vecs[t] = v
			}
			s := &dataset.Sample{Workload: "fleet", Run: fmt.Sprintf("r%d", r), Window: w,
				Degradation: 1, Vectors: vecs}
			if degraded {
				s.Label, s.Degradation = 1, 3
			}
			ds.Add(s)
		}
	}
	fc, _, err := core.TrainForecasterCtx(context.Background(), ds, core.ForecasterConfig{
		Forecast: forecast.Config{History: 3, Horizons: []int{1, 2}},
		Train:    ml.TrainConfig{Epochs: 5},
		Seed:     seed,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return fc
}

// testMatrix is a deterministic prediction input.
func testMatrix(rng *sim.RNG) window.Matrix {
	mat := make(window.Matrix, testTargets)
	for t := range mat {
		row := make([]float64, testFeat)
		for f := range row {
			row[f] = rng.NormFloat64()
		}
		mat[t] = row
	}
	return mat
}

// testHistory is a deterministic forecast input: trainedForecaster's three
// windows.
func testHistory(rng *sim.RNG) []window.Matrix {
	return []window.Matrix{testMatrix(rng), testMatrix(rng), testMatrix(rng)}
}

// testFleet is the in-process multi-replica harness: n serve.Servers behind
// httptest listeners, each with an online loop, fronted by one coordinator.
type testFleet struct {
	c       *Coordinator
	servers []*serve.Server
	https   []*httptest.Server
	loops   []*online.Loop
	names   []string
}

// newTestFleet spins up n replicas all serving clones of the same trained
// framework (a consistent fleet), with per-replica online loops. Replica i
// starts on forecasters[i] when forecasters are given (one per replica).
func newTestFleet(tb testing.TB, n int, seed int64, forecasters ...*forecast.Forecaster) *testFleet {
	tb.Helper()
	master := trainedFramework(tb, seed)
	f := &testFleet{}
	replicas := make([]*Replica, n)
	for i := 0; i < n; i++ {
		fw, err := master.Clone()
		if err != nil {
			tb.Fatal(err)
		}
		var cfg serve.Config
		if forecasters != nil {
			cfg.Forecaster = forecasters[i]
		}
		s := serve.New(fw, cfg)
		ts := httptest.NewServer(s.Handler())
		loop, err := online.NewLoop(s, online.Config{Seed: seed + int64(i)})
		if err != nil {
			tb.Fatal(err)
		}
		name := fmt.Sprintf("r%d", i)
		f.servers = append(f.servers, s)
		f.https = append(f.https, ts)
		f.loops = append(f.loops, loop)
		f.names = append(f.names, name)
		replicas[i] = NewReplica(name, s, serve.NewClient(ts.URL), loop)
	}
	c, err := New(Config{Seed: seed}, replicas...)
	if err != nil {
		tb.Fatal(err)
	}
	f.c = c
	tb.Cleanup(func() {
		for _, ts := range f.https {
			ts.Close()
		}
		for _, s := range f.servers {
			_ = s.Shutdown(context.Background())
		}
	})
	return f
}

// feedLoops offers nEach deterministic labeled examples to every loop.
func (f *testFleet) feedLoops(nEach int) {
	for i, l := range f.loops {
		rng := sim.NewRNG(1000 + int64(i))
		for w := 0; w < nEach; w++ {
			mat := testMatrix(rng)
			l.OfferWindow(mat)
			l.OfferLabeled(online.Example{Window: w, Matrix: mat, Degradation: 1 + 2*float64(w%2)})
		}
	}
}

// TestRoutingDeterministicSpread pins the rendezvous router: same seed ⇒
// identical timelines across two independent fleets, every replica owns a
// share of the keyspace, and repeated keys route to the same replica.
func TestRoutingDeterministicSpread(t *testing.T) {
	ctx := context.Background()
	a := newTestFleet(t, 3, 42)
	b := newTestFleet(t, 3, 42)
	rngA, rngB := sim.NewRNG(7), sim.NewRNG(7)
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("w%02d", i)
		if _, err := a.c.Predict(ctx, key, testMatrix(rngA)); err != nil {
			t.Fatal(err)
		}
		if _, err := b.c.Predict(ctx, key, testMatrix(rngB)); err != nil {
			t.Fatal(err)
		}
	}
	ta, tb := a.c.Timeline(), b.c.Timeline()
	if len(ta) != 30 {
		t.Fatalf("timeline has %d events, want 30 routes", len(ta))
	}
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("same-seed fleets diverged at event %d: %q vs %q", i, ta[i], tb[i])
		}
	}

	perReplica := map[string]int{}
	for _, ev := range ta {
		parts := strings.Fields(ev)
		if parts[0] != "route" {
			t.Fatalf("unexpected event %q in a healthy episode", ev)
		}
		perReplica[parts[2]]++
	}
	for _, name := range a.names {
		if perReplica[name] == 0 {
			t.Fatalf("replica %s owns no keys: distribution %v", name, perReplica)
		}
	}

	// Same key again routes to the same replica.
	resp1, err := a.c.Predict(ctx, "w00", testMatrix(sim.NewRNG(9)))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp1
	tl := a.c.Timeline()
	if tl[len(tl)-1] != ta[0] {
		t.Fatalf("key w00 routed %q, first episode routed %q", tl[len(tl)-1], ta[0])
	}
}

// TestFailoverDropsNothing kills one of three replicas and checks every
// request still lands: the killed replica's keys fail over deterministically
// and Dropped stays zero.
func TestFailoverDropsNothing(t *testing.T) {
	ctx := context.Background()
	f := newTestFleet(t, 3, 11)
	rng := sim.NewRNG(3)

	f.https[1].Close() // kill r1's listener: transport errors, not HTTP ones
	f.c.Note("kill r1")

	sawRetry := false
	for i := 0; i < 24; i++ {
		resp, err := f.c.Predict(ctx, fmt.Sprintf("w%02d", i), testMatrix(rng))
		if err != nil {
			t.Fatalf("request %d dropped: %v", i, err)
		}
		if resp.ModelDigest != f.servers[0].ModelDigest() {
			t.Fatalf("request %d answered with digest %s, fleet serves %s",
				i, resp.ModelDigest, f.servers[0].ModelDigest())
		}
	}
	for _, ev := range f.c.Timeline() {
		if strings.HasPrefix(ev, "retry w") {
			if !strings.Contains(ev, "r1 unreachable") {
				t.Fatalf("retry event %q does not blame the killed replica", ev)
			}
			sawRetry = true
		}
		if strings.HasPrefix(ev, "route") && strings.HasSuffix(ev, " r1") {
			t.Fatalf("killed replica still answered: %q", ev)
		}
	}
	if !sawRetry {
		t.Fatal("no key preferred the killed replica; routing spread is suspect")
	}
	if got := f.c.Accepted(); got != 24 {
		t.Fatalf("accepted %d of 24", got)
	}
	if got := f.c.Dropped(); got != 0 {
		t.Fatalf("dropped %d requests with two healthy replicas", got)
	}
}

// TestOversizedNotFailedOver pins the body-limit mapping through the fleet:
// a request over the replicas' size limit is the caller's mistake, so it is
// rejected as too-large on the first replica and never retried elsewhere.
func TestOversizedNotFailedOver(t *testing.T) {
	f := newTestFleet(t, 3, 13)
	huge := window.Matrix{make([]float64, 1<<19)} // ~1 MiB of JSON zeros
	if _, err := f.c.Predict(context.Background(), "big", huge); !errors.Is(err, serve.ErrTooLarge) {
		t.Fatalf("oversized predict: %v, want serve.ErrTooLarge", err)
	}
	tl := f.c.Timeline()
	if len(tl) != 1 || tl[0] != "reject big too-large" {
		t.Fatalf("timeline %q, want one reject without retries", tl)
	}
	if got := f.c.Dropped(); got != 0 {
		t.Fatalf("dropped %d: a caller mistake is not a dropped request", got)
	}
}

// TestForecastRouting pins forecast routing over replicas started with
// forecasters: a key's forecasts land on the replica its predicts do, a
// killed replica's forecast keys fail over without drops, a fleet without
// forecasters rejects once without retrying, and replicas started on
// different forecasters make the fleet inconsistent.
func TestForecastRouting(t *testing.T) {
	ctx := context.Background()
	fc := trainedForecaster(t, 92)
	fcDigest := ml.WeightsDigest(fc.ExportWeights())
	clone := func() *forecast.Forecaster {
		c, err := fc.Clone()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	f := newTestFleet(t, 3, 91, clone(), clone(), clone())
	rng := sim.NewRNG(8)

	for i := 0; i < 12; i++ {
		key := fmt.Sprintf("w%02d", i)
		if _, err := f.c.Predict(ctx, key, testMatrix(rng)); err != nil {
			t.Fatal(err)
		}
		resp, err := f.c.Forecast(ctx, key, testHistory(rng))
		if err != nil {
			t.Fatal(err)
		}
		if resp.ModelDigest != fcDigest || len(resp.Horizons) != 2 {
			t.Fatalf("forecast %s answered %+v, want digest %s over 2 horizons", key, resp, fcDigest)
		}
		tl := f.c.Timeline()
		if p, fr := tl[len(tl)-2], tl[len(tl)-1]; p != fr || !strings.HasPrefix(fr, "route "+key+" ") {
			t.Fatalf("key %s: predict %q, forecast %q, want one route", key, p, fr)
		}
	}
	if st := f.c.Status(ctx); !st.Consistent || st.ForecasterDigest != fcDigest {
		t.Fatalf("status %+v, want consistent on forecaster %s", st, fcDigest)
	}

	f.https[1].Close()
	mark := len(f.c.Timeline())
	for i := 0; i < 12; i++ {
		if _, err := f.c.Forecast(ctx, fmt.Sprintf("w%02d", i), testHistory(rng)); err != nil {
			t.Fatalf("forecast %d dropped: %v", i, err)
		}
	}
	sawRetry := false
	for _, ev := range f.c.Timeline()[mark:] {
		if strings.HasPrefix(ev, "retry ") {
			if !strings.HasSuffix(ev, " r1 unreachable") {
				t.Fatalf("retry event %q does not blame the killed replica", ev)
			}
			sawRetry = true
		}
		if strings.HasSuffix(ev, " r1") {
			t.Fatalf("killed replica still answered: %q", ev)
		}
	}
	if !sawRetry {
		t.Fatal("no forecast key preferred the killed replica")
	}
	if got := f.c.Dropped(); got != 0 {
		t.Fatalf("dropped %d forecasts with two healthy replicas", got)
	}

	bare := newTestFleet(t, 3, 93)
	if _, err := bare.c.Forecast(ctx, "w00", testHistory(rng)); !errors.Is(err, serve.ErrNoForecaster) {
		t.Fatalf("forecast without forecasters = %v, want serve.ErrNoForecaster", err)
	}
	if tl := bare.c.Timeline(); len(tl) != 1 || tl[0] != "reject w00 no-forecaster" {
		t.Fatalf("timeline %q, want one reject without retries", tl)
	}
	if got := bare.c.Dropped(); got != 0 {
		t.Fatalf("dropped %d: a fleet without forecasters rejects, it does not drop", got)
	}

	mixed := newTestFleet(t, 3, 94, clone(), clone(), trainedForecaster(t, 95))
	if st := mixed.c.Status(ctx); st.Healthy != 3 || st.Consistent || st.ForecasterDigest != "" {
		t.Fatalf("replicas on different forecasters: status %+v, want 3 healthy, inconsistent", st)
	}
}

// TestStatusAggregation pins the health view: a consistent fleet, then a
// killed replica (still consistent among the healthy), then a divergent
// model digest (inconsistent).
func TestStatusAggregation(t *testing.T) {
	ctx := context.Background()
	f := newTestFleet(t, 3, 5)

	st := f.c.Status(ctx)
	if st.Healthy != 3 || !st.Consistent {
		t.Fatalf("fresh fleet: healthy %d consistent %v", st.Healthy, st.Consistent)
	}
	if st.APIVersion != serve.APIVersion || st.ModelDigest != f.servers[0].ModelDigest() {
		t.Fatalf("status advertises %s/%s", st.APIVersion, st.ModelDigest)
	}
	if st.Targets != testTargets || st.Features != testFeat {
		t.Fatalf("status shape %dx%d, want %dx%d", st.Targets, st.Features, testTargets, testFeat)
	}

	f.https[2].Close()
	st = f.c.Status(ctx)
	if st.Healthy != 2 || !st.Consistent {
		t.Fatalf("after kill: healthy %d consistent %v", st.Healthy, st.Consistent)
	}
	if st.Replicas[2].Healthy || st.Replicas[2].Cause != "unreachable" {
		t.Fatalf("killed replica reported %+v", st.Replicas[2])
	}

	// Diverge r1's model: fleet no longer consistent.
	other := trainedFramework(t, 99)
	if err := f.servers[1].ReloadFramework(other); err != nil {
		t.Fatal(err)
	}
	st = f.c.Status(ctx)
	if st.Consistent {
		t.Fatal("fleet with mixed digests reported consistent")
	}
	if st.ModelDigest != "" {
		t.Fatalf("inconsistent fleet still advertises digest %q", st.ModelDigest)
	}
}

// TestMergedDatasetOrderIndependent pins the federated-retraining corpus:
// the coordinator's merge digests identically to a hand-rolled merge of the
// same exports in reverse order, and distinct replicas never dedupe into
// each other.
func TestMergedDatasetOrderIndependent(t *testing.T) {
	f := newTestFleet(t, 3, 21)
	f.feedLoops(12)

	merged, err := f.c.MergedDataset()
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != 3*12 {
		t.Fatalf("merged %d samples, want %d", merged.Len(), 3*12)
	}

	var reversed []*dataset.Dataset
	for i := len(f.loops) - 1; i >= 0; i-- {
		reversed = append(reversed, f.loops[i].ExportBuffer(f.names[i]))
	}
	back, err := dataset.MergeAll(reversed...)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Digest() != back.Digest() {
		t.Fatalf("merge order changed the digest: %s vs %s", merged.Digest(), back.Digest())
	}
}

// TestSaveLoadBuffers pins reservoir persistence: a restarted replica that
// replays its saved export contributes the same samples to the fleet merge
// as before the restart.
func TestSaveLoadBuffers(t *testing.T) {
	f := newTestFleet(t, 3, 33)
	f.feedLoops(10)
	dir := t.TempDir()

	before, err := f.c.MergedDataset()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.c.SaveBuffers(dir); err != nil {
		t.Fatal(err)
	}

	// "Restart" r1: fresh server + empty loop under the same name.
	fw, err := f.servers[1].Framework().Clone()
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New(fw, serve.Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	loop, err := online.NewLoop(s, online.Config{Seed: 33 + 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.c.Rebind("r1", s, serve.NewClient(ts.URL), loop); err != nil {
		t.Fatal(err)
	}
	f.loops[1] = loop

	if _, err := f.c.MergedDataset(); err != nil {
		t.Fatal(err)
	}
	if err := f.c.LoadBuffers(dir); err != nil {
		t.Fatal(err)
	}
	after, err := f.c.MergedDataset()
	if err != nil {
		t.Fatal(err)
	}
	if after.Digest() != before.Digest() {
		t.Fatalf("restored fleet corpus digest %s, want pre-restart %s", after.Digest(), before.Digest())
	}

	// Rebinding an unknown name is refused.
	if err := f.c.Rebind("nope", s, serve.NewClient(ts.URL), nil); !errors.Is(err, ErrUnknownReplica) {
		t.Fatalf("rebind of unknown replica = %v", err)
	}
}

// flakyAdmin wraps a replica's admin plane and fails reloads on demand —
// the injection point for rollback coverage.
type flakyAdmin struct {
	Admin
	failReload bool
}

var errInjected = errors.New("injected reload failure")

func (f *flakyAdmin) ReloadFramework(fw *core.Framework) error {
	if f.failReload {
		return errInjected
	}
	return f.Admin.ReloadFramework(fw)
}

// TestPromoteRollsBack walks the rolling promotion through a mid-fleet
// failure: the already-promoted replica returns to the incumbent digest,
// the untouched replica never changes, and a later retry lands everywhere.
func TestPromoteRollsBack(t *testing.T) {
	ctx := context.Background()
	f := newTestFleet(t, 3, 55)
	incDigest := f.servers[0].ModelDigest()

	flaky := &flakyAdmin{Admin: f.servers[1], failReload: true}
	if err := f.c.Rebind("r1", flaky, serve.NewClient(f.https[1].URL), nil); err != nil {
		t.Fatal(err)
	}

	cand := trainedFramework(t, 56)
	candDigest := ml.WeightsDigest(cand.ExportWeights())
	if candDigest == incDigest {
		t.Fatal("candidate digests like the incumbent; test is vacuous")
	}

	err := f.c.Promote(ctx, cand)
	if !errors.Is(err, ErrPromotionFailed) {
		t.Fatalf("promotion with failing r1 = %v, want ErrPromotionFailed", err)
	}
	for i, s := range f.servers {
		if got := s.ModelDigest(); got != incDigest {
			t.Fatalf("replica r%d serves %s after rollback, want incumbent %s", i, got, incDigest)
		}
	}
	tl := f.c.Timeline()
	want := []string{
		"promote r0 " + candDigest,
		"promote-failed r1 reload",
		"rollback r0 " + incDigest,
	}
	// The Rebind event leads the timeline; compare the tail.
	if len(tl) < len(want) {
		t.Fatalf("timeline too short: %q", tl)
	}
	for i, w := range want {
		if got := tl[len(tl)-len(want)+i]; got != w {
			t.Fatalf("timeline[%d] = %q, want %q (full: %q)", i, got, w, tl)
		}
	}

	// Clear the fault: the retry promotes all three.
	flaky.failReload = false
	if err := f.c.Promote(ctx, cand); err != nil {
		t.Fatal(err)
	}
	for i, s := range f.servers {
		if got := s.ModelDigest(); got != candDigest {
			t.Fatalf("replica r%d serves %s after rollout, want %s", i, got, candDigest)
		}
	}
	// The candidate stays the caller's: promoting cloned per replica.
	if f.servers[0].Framework() == cand {
		t.Fatal("coordinator handed the caller's candidate to a replica instead of a clone")
	}
	if st := f.c.Status(ctx); !st.Consistent || st.ModelDigest != candDigest {
		t.Fatalf("post-rollout status %+v, want consistent on %s", st, candDigest)
	}
}

// TestPromoteRefusesUnreachable pins the preflight: a dead replica halts
// the rollout and earlier steps roll back, leaving digests untouched.
func TestPromoteRefusesUnreachable(t *testing.T) {
	ctx := context.Background()
	f := newTestFleet(t, 3, 77)
	incDigest := f.servers[0].ModelDigest()
	f.https[1].Close()

	err := f.c.Promote(ctx, trainedFramework(t, 78))
	if !errors.Is(err, ErrPromotionFailed) {
		t.Fatalf("promotion with dead r1 = %v, want ErrPromotionFailed", err)
	}
	for i, s := range f.servers {
		if got := s.ModelDigest(); got != incDigest {
			t.Fatalf("replica r%d serves %s, want incumbent %s", i, got, incDigest)
		}
	}
	tl := f.c.Timeline()
	if tl[len(tl)-2] != "promote-failed r1 unreachable" || tl[len(tl)-1] != "rollback r0 "+incDigest {
		t.Fatalf("timeline tail %q", tl[len(tl)-2:])
	}
}

// TestStatusLastFailure pins the degraded-replica diagnosis: a replica that
// lost routing turns carries its last failure cause in Status, and the label
// sticks through a restart under the same name — the answer to "why is r1
// degraded" survives the replica coming back.
func TestStatusLastFailure(t *testing.T) {
	ctx := context.Background()
	f := newTestFleet(t, 3, 17)
	rng := sim.NewRNG(4)

	f.https[1].Close()
	for i := 0; i < 12; i++ {
		if _, err := f.c.Predict(ctx, fmt.Sprintf("w%02d", i), testMatrix(rng)); err != nil {
			t.Fatal(err)
		}
	}
	st := f.c.Status(ctx)
	if st.Replicas[1].LastFailure != "unreachable" {
		t.Fatalf("killed replica LastFailure = %q, want unreachable (status %+v)", st.Replicas[1].LastFailure, st.Replicas[1])
	}
	for _, i := range []int{0, 2} {
		if st.Replicas[i].LastFailure != "" {
			t.Fatalf("healthy replica %s carries LastFailure %q", st.Replicas[i].Name, st.Replicas[i].LastFailure)
		}
	}

	// "Restart" r1 under the same name: healthy again, but the last failure
	// cause is sticky — the degradation stays diagnosable after recovery.
	fw, err := f.servers[1].Framework().Clone()
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New(fw, serve.Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if err := f.c.Rebind("r1", s, serve.NewClient(ts.URL), nil); err != nil {
		t.Fatal(err)
	}
	st = f.c.Status(ctx)
	if !st.Replicas[1].Healthy || st.Replicas[1].LastFailure != "unreachable" {
		t.Fatalf("restarted replica = %+v, want healthy with sticky LastFailure", st.Replicas[1])
	}
}

// TestPromoteShadowed pins the shadow-gated rollout: a promoting verdict
// rolls exactly the winning candidate fleet-wide, a kept-champion verdict
// touches nothing and reports ErrShadowRejected, and a winner missing from
// the candidate map is a wiring error caught before any replica changes.
func TestPromoteShadowed(t *testing.T) {
	ctx := context.Background()
	f := newTestFleet(t, 3, 61)
	incDigest := f.servers[0].ModelDigest()

	winner := trainedFramework(t, 62)
	loser := trainedFramework(t, 63)
	winDigest := ml.WeightsDigest(winner.ExportWeights())
	cands := map[string]*core.Framework{"c-win": winner, "c-lose": loser}

	// Kept-champion verdict: nothing rolls out.
	kept := online.EvaluateShadowGate(61,
		online.CandidateScore{Name: "champion", Accuracy: 0.9, Samples: 64},
		[]online.CandidateScore{{Name: "c-win", Accuracy: 0.9, Samples: 64}},
		0.05, 32)
	if err := f.c.PromoteShadowed(ctx, kept, cands); !errors.Is(err, ErrShadowRejected) {
		t.Fatalf("kept-champion verdict = %v, want ErrShadowRejected", err)
	}
	for i, s := range f.servers {
		if s.ModelDigest() != incDigest {
			t.Fatalf("replica r%d changed digest on a rejected verdict", i)
		}
	}
	tl := f.c.Timeline()
	if tl[len(tl)-1] != "shadow-keep incumbent" {
		t.Fatalf("timeline tail %q, want shadow-keep incumbent", tl[len(tl)-1])
	}

	// Winner not in the candidate map: error before any replica is touched.
	ghost := online.EvaluateShadowGate(61,
		online.CandidateScore{Name: "champion", Accuracy: 0.5, Samples: 64},
		[]online.CandidateScore{{Name: "ghost", Accuracy: 0.9, Samples: 64}},
		0.05, 32)
	if err := f.c.PromoteShadowed(ctx, ghost, cands); err == nil || errors.Is(err, ErrShadowRejected) {
		t.Fatalf("unknown winner = %v, want a wiring error", err)
	}
	for i, s := range f.servers {
		if s.ModelDigest() != incDigest {
			t.Fatalf("replica r%d changed digest on an unknown winner", i)
		}
	}

	// Promoting verdict: exactly the winner rolls out fleet-wide.
	promote := online.EvaluateShadowGate(61,
		online.CandidateScore{Name: "champion", Accuracy: 0.5, Samples: 64},
		[]online.CandidateScore{
			{Name: "c-lose", Accuracy: 0.6, Samples: 64},
			{Name: "c-win", Accuracy: 0.9, Samples: 64},
		}, 0.05, 32)
	if promote.Winner != "c-win" {
		t.Fatalf("gate picked %q, want c-win", promote.Winner)
	}
	if err := f.c.PromoteShadowed(ctx, promote, cands); err != nil {
		t.Fatal(err)
	}
	for i, s := range f.servers {
		if got := s.ModelDigest(); got != winDigest {
			t.Fatalf("replica r%d serves %s, want winner %s", i, got, winDigest)
		}
	}
	tl = f.c.Timeline()
	want := []string{
		"shadow-promote c-win",
		"promote r0 " + winDigest,
		"promote r1 " + winDigest,
		"promote r2 " + winDigest,
	}
	if len(tl) < len(want) {
		t.Fatalf("timeline too short: %q", tl)
	}
	for i, w := range want {
		if got := tl[len(tl)-len(want)+i]; got != w {
			t.Fatalf("timeline[%d] = %q, want %q (full: %q)", i, got, w, tl)
		}
	}
}

// TestConcurrentRoutingDuringPromotion exercises the coordinator under
// -race: many goroutines predict through the fleet while a promotion and
// status probes run. Every request must land (no drops — replicas stay
// serving throughout a hot promotion).
func TestConcurrentRoutingDuringPromotion(t *testing.T) {
	ctx := context.Background()
	f := newTestFleet(t, 3, 13)
	cand := trainedFramework(t, 14)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := sim.NewRNG(int64(g))
			for i := 0; i < 20; i++ {
				if _, err := f.c.Predict(ctx, fmt.Sprintf("g%d-%d", g, i), testMatrix(rng)); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := f.c.Promote(ctx, cand); err != nil {
			errs <- err
		}
		f.c.Status(ctx)
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := f.c.Dropped(); got != 0 {
		t.Fatalf("dropped %d requests during a hot promotion", got)
	}
}

// TestTimelineKeepsNewestLines pins the timeline's bound: a coordinator that
// routes 3 × timelineCap requests keeps exactly the newest timelineCap lines,
// oldest first, so its memory does not grow with its traffic.
func TestTimelineKeepsNewestLines(t *testing.T) {
	ctx := context.Background()
	s := serve.New(trainedFramework(t, 60), serve.Config{MaxBatch: 1}) // no batch window to wait out
	ts := httptest.NewServer(s.Handler())
	defer s.Shutdown(ctx)
	defer ts.Close()
	c, err := New(Config{Seed: 60}, NewReplica("r0", s, serve.NewClient(ts.URL), nil))
	if err != nil {
		t.Fatal(err)
	}
	c.Note("start") // moves the ring's wrap point off slot 0
	want := []string{"start"}
	mat := testMatrix(sim.NewRNG(61))
	for i := 0; i < 3*timelineCap; i++ {
		key := fmt.Sprintf("k%04d", i)
		if _, err := c.Predict(ctx, key, mat); err != nil {
			t.Fatal(err)
		}
		want = append(want, "route "+key+" r0")
		if len(want) == timelineCap/2 {
			if got := c.Timeline(); !slices.Equal(got, want) {
				t.Fatalf("timeline below the cap is not every line in order: %d lines, want %d", len(got), len(want))
			}
		}
	}
	want = want[len(want)-timelineCap:]
	got := c.Timeline()
	if !slices.Equal(got, want) {
		t.Fatalf("timeline holds %d lines from %q to %q, want the newest %d from %q to %q",
			len(got), got[0], got[len(got)-1], timelineCap, want[0], want[len(want)-1])
	}
	if c.Accepted() != 3*timelineCap {
		t.Fatalf("accepted %d, want %d", c.Accepted(), 3*timelineCap)
	}
}
