package fleet

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"quanterference/internal/core"
	"quanterference/internal/dataset"
	"quanterference/internal/forecast"
	"quanterference/internal/ml"
	"quanterference/internal/monitor/window"
	"quanterference/internal/serve"
	"quanterference/internal/shadow"
	"quanterference/internal/sim"
)

func trainedForecaster(tb testing.TB, seed int64) *forecast.Forecaster {
	tb.Helper()
	names := make([]string, nFeat)
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i)
	}
	ds := dataset.New(names, nTargets, 2)
	rng := sim.NewRNG(seed)
	for r := 0; r < 4; r++ {
		for w := 0; w < 16; w++ {
			degraded := w >= 10
			vecs := make([][]float64, nTargets)
			for t := range vecs {
				v := make([]float64, nFeat)
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

// testHistory is a deterministic forecast input: trainedForecaster's three
// windows.
func testHistory(rng *sim.RNG) []window.Matrix {
	return []window.Matrix{matrix(rng, 0), matrix(rng, 0), matrix(rng, 0)}
}

// bootFleet starts a Local fleet for the test's lifetime, serving
// train(corpus(seed), seed, 5): one replica per config (three default ones
// when none are given), each with an online loop.
func bootFleet(tb testing.TB, seed int64, cfgs ...serve.Config) *Local {
	tb.Helper()
	if cfgs == nil {
		cfgs = make([]serve.Config, 3)
	}
	l, err := StartLocal(train(corpus(seed), seed, 5), seed, true, cfgs...)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(l.Close)
	return l
}

// TestRoutingDeterministicSpread pins the rendezvous router: same seed ⇒
// identical timelines across two independent fleets, every replica owns a
// share of the keyspace, and repeated keys route to the same replica.
func TestRoutingDeterministicSpread(t *testing.T) {
	ctx := context.Background()
	a := bootFleet(t, 42)
	b := bootFleet(t, 42)
	rngA, rngB := sim.NewRNG(7), sim.NewRNG(7)
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("w%02d", i)
		if _, err := a.Coord.Predict(ctx, key, matrix(rngA, 0)); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Coord.Predict(ctx, key, matrix(rngB, 0)); err != nil {
			t.Fatal(err)
		}
	}
	ta, tb := a.Coord.Timeline(), b.Coord.Timeline()
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
	for _, name := range a.Names {
		if perReplica[name] == 0 {
			t.Fatalf("replica %s owns no keys: distribution %v", name, perReplica)
		}
	}

	// Same key again routes to the same replica.
	resp1, err := a.Coord.Predict(ctx, "w00", matrix(sim.NewRNG(9), 0))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp1
	tl := a.Coord.Timeline()
	if tl[len(tl)-1] != ta[0] {
		t.Fatalf("key w00 routed %q, first episode routed %q", tl[len(tl)-1], ta[0])
	}
}

// TestFailoverDropsNothing kills one of three replicas and checks every
// request still lands: the killed replica's keys fail over deterministically
// and Dropped stays zero.
func TestFailoverDropsNothing(t *testing.T) {
	ctx := context.Background()
	f := bootFleet(t, 11)
	rng := sim.NewRNG(3)

	f.Kill(1) // r1's listener closes: transport errors, not HTTP ones

	retries := 0
	for i := 0; i < 24; i++ {
		resp, err := f.Coord.Predict(ctx, fmt.Sprintf("w%02d", i), matrix(rng, 0))
		if err != nil {
			t.Fatalf("request %d dropped: %v", i, err)
		}
		if resp.ModelDigest != f.Servers[0].ModelDigest() {
			t.Fatalf("request %d answered with digest %s, fleet serves %s",
				i, resp.ModelDigest, f.Servers[0].ModelDigest())
		}
	}
	for _, ev := range f.Coord.Timeline() {
		if strings.HasPrefix(ev, "retry w") {
			if !strings.Contains(ev, "r1 unreachable") {
				t.Fatalf("retry event %q does not blame the killed replica", ev)
			}
			retries++
		}
		if strings.HasPrefix(ev, "route") && strings.HasSuffix(ev, " r1") {
			t.Fatalf("killed replica still answered: %q", ev)
		}
	}
	if retries == 0 {
		t.Fatal("no key preferred the killed replica; routing spread is suspect")
	}
	if got := f.Coord.Retries(); got != retries {
		t.Fatalf("Retries() = %d, the timeline holds %d retry lines", got, retries)
	}
	if got := f.Coord.Accepted(); got != 24 {
		t.Fatalf("accepted %d of 24", got)
	}
	if got := f.Coord.Dropped(); got != 0 {
		t.Fatalf("dropped %d requests with two healthy replicas", got)
	}
}

// TestRetriesCountPastTheRing: the retry counter keeps counting after the
// timeline ring wraps. A key that prefers a killed replica fails over on
// every request, two lines each, so timelineCap requests wrap the ring
// halfway through and must still count timelineCap retries.
func TestRetriesCountPastTheRing(t *testing.T) {
	ctx := context.Background()
	one := serve.Config{MaxBatch: 1} // answer at once: no batch window per request
	f := bootFleet(t, 62, one, one)
	f.Kill(0)
	key := ""
	for i := 0; key == ""; i++ {
		if k := fmt.Sprintf("k%d", i); f.Coord.rank(k)[0].name == f.Names[0] {
			key = k
		}
	}
	mat := matrix(sim.NewRNG(63), 0)
	wrapped := -1
	for i := 0; i < timelineCap; i++ {
		if _, err := f.Coord.Predict(ctx, key, mat); err != nil {
			t.Fatal(err)
		}
		if wrapped < 0 && len(f.Coord.Timeline()) == timelineCap {
			wrapped = f.Coord.Retries()
		}
	}
	if got := f.Coord.Retries(); wrapped < 0 || got <= wrapped || got != timelineCap {
		t.Fatalf("Retries() = %d (%d when the ring filled), want %d", got, wrapped, timelineCap)
	}
	if got := f.Coord.Dropped(); got != 0 {
		t.Fatalf("dropped %d requests with one healthy replica", got)
	}
}

// TestOversizedNotFailedOver pins the body-limit mapping through the fleet:
// a request over the replicas' size limit is the caller's mistake, so it is
// rejected as too-large on the first replica and never retried elsewhere.
func TestOversizedNotFailedOver(t *testing.T) {
	f := bootFleet(t, 13)
	huge := window.Matrix{make([]float64, 1<<19)} // ~1 MiB of JSON zeros
	if _, err := f.Coord.Predict(context.Background(), "big", huge); !errors.Is(err, serve.ErrTooLarge) {
		t.Fatalf("oversized predict: %v, want serve.ErrTooLarge", err)
	}
	tl := f.Coord.Timeline()
	if len(tl) != 1 || tl[0] != "reject big too-large" {
		t.Fatalf("timeline %q, want one reject without retries", tl)
	}
	if got := f.Coord.Dropped(); got != 0 {
		t.Fatalf("dropped %d: a caller mistake is not a dropped request", got)
	}
}

// TestCanceledCallerNotFailedOver pins the caller's own cancellation: a
// predict whose context is already done fails with that context's error,
// and the fleet neither fails it over, blames a replica, nor counts a drop.
func TestCanceledCallerNotFailedOver(t *testing.T) {
	f := bootFleet(t, 42)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.Coord.Predict(ctx, "k1", matrix(sim.NewRNG(1), 0)); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled predict = %v, want context.Canceled", err)
	}
	if tl := f.Coord.Timeline(); len(tl) != 0 {
		t.Fatalf("timeline %q, want no retry or drop lines", tl)
	}
	if got := f.Coord.Dropped(); got != 0 {
		t.Fatalf("dropped %d: the caller gave up, no replica failed", got)
	}
	for _, r := range f.Coord.Status(context.Background()).Replicas {
		if !r.Healthy || r.LastFailure != "" {
			t.Fatalf("replica %s = %+v, want healthy with no last failure", r.Name, r)
		}
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
	onForecasters := func(fcs ...*forecast.Forecaster) []serve.Config {
		cfgs := make([]serve.Config, len(fcs))
		for i, fc := range fcs {
			cfgs[i].Forecaster = fc
		}
		return cfgs
	}
	f := bootFleet(t, 91, onForecasters(clone(), clone(), clone())...)
	rng := sim.NewRNG(8)

	for i := 0; i < 12; i++ {
		key := fmt.Sprintf("w%02d", i)
		if _, err := f.Coord.Predict(ctx, key, matrix(rng, 0)); err != nil {
			t.Fatal(err)
		}
		resp, err := f.Coord.Forecast(ctx, key, testHistory(rng))
		if err != nil {
			t.Fatal(err)
		}
		if resp.ModelDigest != fcDigest || len(resp.Horizons) != 2 {
			t.Fatalf("forecast %s answered %+v, want digest %s over 2 horizons", key, resp, fcDigest)
		}
		tl := f.Coord.Timeline()
		if p, fr := tl[len(tl)-2], tl[len(tl)-1]; p != fr || !strings.HasPrefix(fr, "route "+key+" ") {
			t.Fatalf("key %s: predict %q, forecast %q, want one route", key, p, fr)
		}
	}
	if st := f.Coord.Status(ctx); !st.Consistent || st.ForecasterDigest != fcDigest {
		t.Fatalf("status %+v, want consistent on forecaster %s", st, fcDigest)
	}

	f.Kill(1)
	mark := len(f.Coord.Timeline())
	for i := 0; i < 12; i++ {
		if _, err := f.Coord.Forecast(ctx, fmt.Sprintf("w%02d", i), testHistory(rng)); err != nil {
			t.Fatalf("forecast %d dropped: %v", i, err)
		}
	}
	sawRetry := false
	for _, ev := range f.Coord.Timeline()[mark:] {
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
	if got := f.Coord.Dropped(); got != 0 {
		t.Fatalf("dropped %d forecasts with two healthy replicas", got)
	}

	bare := bootFleet(t, 93)
	if _, err := bare.Coord.Forecast(ctx, "w00", testHistory(rng)); !errors.Is(err, serve.ErrNoForecaster) {
		t.Fatalf("forecast without forecasters = %v, want serve.ErrNoForecaster", err)
	}
	if tl := bare.Coord.Timeline(); len(tl) != 1 || tl[0] != "reject w00 no-forecaster" {
		t.Fatalf("timeline %q, want one reject without retries", tl)
	}
	if got := bare.Coord.Dropped(); got != 0 {
		t.Fatalf("dropped %d: a fleet without forecasters rejects, it does not drop", got)
	}

	mixed := bootFleet(t, 94, onForecasters(clone(), clone(), trainedForecaster(t, 95))...)
	if st := mixed.Coord.Status(ctx); st.Healthy != 3 || st.Consistent || st.ForecasterDigest != "" {
		t.Fatalf("replicas on different forecasters: status %+v, want 3 healthy, inconsistent", st)
	}
}

// TestStatusAggregation pins the health view: a consistent fleet, then a
// killed replica (still consistent among the healthy), then a divergent
// model digest (inconsistent).
func TestStatusAggregation(t *testing.T) {
	ctx := context.Background()
	f := bootFleet(t, 5)

	st := f.Coord.Status(ctx)
	if st.Healthy != 3 || !st.Consistent {
		t.Fatalf("fresh fleet: healthy %d consistent %v", st.Healthy, st.Consistent)
	}
	if st.APIVersion != serve.APIVersion || st.ModelDigest != f.Servers[0].ModelDigest() {
		t.Fatalf("status advertises %s/%s", st.APIVersion, st.ModelDigest)
	}
	if st.Targets != nTargets || st.Features != nFeat {
		t.Fatalf("status shape %dx%d, want %dx%d", st.Targets, st.Features, nTargets, nFeat)
	}

	f.Kill(2)
	st = f.Coord.Status(ctx)
	if st.Healthy != 2 || !st.Consistent {
		t.Fatalf("after kill: healthy %d consistent %v", st.Healthy, st.Consistent)
	}
	if st.Replicas[2].Healthy || st.Replicas[2].Cause != "unreachable" {
		t.Fatalf("killed replica reported %+v", st.Replicas[2])
	}

	// Diverge r1's model: fleet no longer consistent.
	other := train(corpus(99), 99, 5)
	if err := f.Servers[1].ReloadFramework(other); err != nil {
		t.Fatal(err)
	}
	st = f.Coord.Status(ctx)
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
	f := bootFleet(t, 21)
	feedLoops(f.Loops, 12)

	merged, err := f.Coord.MergedDataset()
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != 3*12 {
		t.Fatalf("merged %d samples, want %d", merged.Len(), 3*12)
	}

	var reversed []*dataset.Dataset
	for i := len(f.Loops) - 1; i >= 0; i-- {
		reversed = append(reversed, f.Loops[i].ExportBuffer(f.Names[i]))
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
	f := bootFleet(t, 33)
	feedLoops(f.Loops, 10)
	dir := t.TempDir()

	before, err := f.Coord.MergedDataset()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Coord.SaveBuffers(dir); err != nil {
		t.Fatal(err)
	}

	// Restart r1: fresh server + empty loop under the same name.
	if err := f.Restart(1); err != nil {
		t.Fatal(err)
	}

	if _, err := f.Coord.MergedDataset(); err != nil {
		t.Fatal(err)
	}
	if err := f.Coord.LoadBuffers(dir); err != nil {
		t.Fatal(err)
	}
	after, err := f.Coord.MergedDataset()
	if err != nil {
		t.Fatal(err)
	}
	if after.Digest() != before.Digest() {
		t.Fatalf("restored fleet corpus digest %s, want pre-restart %s", after.Digest(), before.Digest())
	}

	// Rebinding an unknown name is refused.
	if err := f.Coord.Rebind("nope", f.Servers[1], serve.NewClient(f.HTTP[1].URL), nil); !errors.Is(err, ErrUnknownReplica) {
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
	f := bootFleet(t, 55)
	incDigest := f.Servers[0].ModelDigest()

	flaky := &flakyAdmin{Admin: f.Servers[1], failReload: true}
	if err := f.Coord.Rebind("r1", flaky, serve.NewClient(f.HTTP[1].URL), nil); err != nil {
		t.Fatal(err)
	}

	cand := train(corpus(56), 56, 5)
	candDigest := ml.WeightsDigest(cand.ExportWeights())
	if candDigest == incDigest {
		t.Fatal("candidate digests like the incumbent; test is vacuous")
	}

	err := f.Coord.Promote(ctx, cand)
	if !errors.Is(err, ErrPromotionFailed) {
		t.Fatalf("promotion with failing r1 = %v, want ErrPromotionFailed", err)
	}
	for i, s := range f.Servers {
		if got := s.ModelDigest(); got != incDigest {
			t.Fatalf("replica r%d serves %s after rollback, want incumbent %s", i, got, incDigest)
		}
	}
	tl := f.Coord.Timeline()
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
	if err := f.Coord.Promote(ctx, cand); err != nil {
		t.Fatal(err)
	}
	for i, s := range f.Servers {
		if got := s.ModelDigest(); got != candDigest {
			t.Fatalf("replica r%d serves %s after rollout, want %s", i, got, candDigest)
		}
	}
	// The candidate stays the caller's: promoting cloned per replica.
	if f.Servers[0].Framework() == cand {
		t.Fatal("coordinator handed the caller's candidate to a replica instead of a clone")
	}
	if st := f.Coord.Status(ctx); !st.Consistent || st.ModelDigest != candDigest {
		t.Fatalf("post-rollout status %+v, want consistent on %s", st, candDigest)
	}
}

// TestPromoteRefusesUnreachable pins the preflight: a dead replica halts
// the rollout and earlier steps roll back, leaving digests untouched.
func TestPromoteRefusesUnreachable(t *testing.T) {
	ctx := context.Background()
	f := bootFleet(t, 77)
	incDigest := f.Servers[0].ModelDigest()
	f.Kill(1)

	err := f.Coord.Promote(ctx, train(corpus(78), 78, 5))
	if !errors.Is(err, ErrPromotionFailed) {
		t.Fatalf("promotion with dead r1 = %v, want ErrPromotionFailed", err)
	}
	for i, s := range f.Servers {
		if got := s.ModelDigest(); got != incDigest {
			t.Fatalf("replica r%d serves %s, want incumbent %s", i, got, incDigest)
		}
	}
	tl := f.Coord.Timeline()
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
	f := bootFleet(t, 17)
	rng := sim.NewRNG(4)

	f.Kill(1)
	for i := 0; i < 12; i++ {
		if _, err := f.Coord.Predict(ctx, fmt.Sprintf("w%02d", i), matrix(rng, 0)); err != nil {
			t.Fatal(err)
		}
	}
	st := f.Coord.Status(ctx)
	if st.Replicas[1].LastFailure != "unreachable" {
		t.Fatalf("killed replica LastFailure = %q, want unreachable (status %+v)", st.Replicas[1].LastFailure, st.Replicas[1])
	}
	for _, i := range []int{0, 2} {
		if st.Replicas[i].LastFailure != "" {
			t.Fatalf("healthy replica %s carries LastFailure %q", st.Replicas[i].Name, st.Replicas[i].LastFailure)
		}
	}

	// Restart r1 under the same name: healthy again, but the last failure
	// cause is sticky — the degradation stays diagnosable after recovery.
	if err := f.Restart(1); err != nil {
		t.Fatal(err)
	}
	st = f.Coord.Status(ctx)
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
	f := bootFleet(t, 61)
	incDigest := f.Servers[0].ModelDigest()

	winner := train(corpus(62), 62, 5)
	loser := train(corpus(63), 63, 5)
	winDigest := ml.WeightsDigest(winner.ExportWeights())
	cands := map[string]*core.Framework{"c-win": winner, "c-lose": loser}

	// Kept-champion verdict: nothing rolls out.
	kept := shadow.Gate(61,
		shadow.Score{Name: "champion", Accuracy: 0.9, Samples: 64},
		[]shadow.Score{{Name: "c-win", Accuracy: 0.9, Samples: 64}},
		0.05, 32)
	if err := f.Coord.PromoteShadowed(ctx, kept, cands); !errors.Is(err, ErrShadowRejected) {
		t.Fatalf("kept-champion verdict = %v, want ErrShadowRejected", err)
	}
	for i, s := range f.Servers {
		if s.ModelDigest() != incDigest {
			t.Fatalf("replica r%d changed digest on a rejected verdict", i)
		}
	}
	tl := f.Coord.Timeline()
	if tl[len(tl)-1] != "shadow-keep incumbent" {
		t.Fatalf("timeline tail %q, want shadow-keep incumbent", tl[len(tl)-1])
	}

	// Winner not in the candidate map: error before any replica is touched.
	ghost := shadow.Gate(61,
		shadow.Score{Name: "champion", Accuracy: 0.5, Samples: 64},
		[]shadow.Score{{Name: "ghost", Accuracy: 0.9, Samples: 64}},
		0.05, 32)
	if err := f.Coord.PromoteShadowed(ctx, ghost, cands); err == nil || errors.Is(err, ErrShadowRejected) {
		t.Fatalf("unknown winner = %v, want a wiring error", err)
	}
	for i, s := range f.Servers {
		if s.ModelDigest() != incDigest {
			t.Fatalf("replica r%d changed digest on an unknown winner", i)
		}
	}

	// Promoting verdict: exactly the winner rolls out fleet-wide.
	promote := shadow.Gate(61,
		shadow.Score{Name: "champion", Accuracy: 0.5, Samples: 64},
		[]shadow.Score{
			{Name: "c-lose", Accuracy: 0.6, Samples: 64},
			{Name: "c-win", Accuracy: 0.9, Samples: 64},
		}, 0.05, 32)
	if promote.Winner != "c-win" {
		t.Fatalf("gate picked %q, want c-win", promote.Winner)
	}
	if err := f.Coord.PromoteShadowed(ctx, promote, cands); err != nil {
		t.Fatal(err)
	}
	for i, s := range f.Servers {
		if got := s.ModelDigest(); got != winDigest {
			t.Fatalf("replica r%d serves %s, want winner %s", i, got, winDigest)
		}
	}
	tl = f.Coord.Timeline()
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
	f := bootFleet(t, 13)
	cand := train(corpus(14), 14, 5)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := sim.NewRNG(int64(g))
			for i := 0; i < 20; i++ {
				if _, err := f.Coord.Predict(ctx, fmt.Sprintf("g%d-%d", g, i), matrix(rng, 0)); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := f.Coord.Promote(ctx, cand); err != nil {
			errs <- err
		}
		f.Coord.Status(ctx)
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := f.Coord.Dropped(); got != 0 {
		t.Fatalf("dropped %d requests during a hot promotion", got)
	}
}

// TestTimelineKeepsNewestLines pins the timeline's bound: a coordinator that
// routes 3 × timelineCap requests keeps exactly the newest timelineCap lines,
// oldest first, so its memory does not grow with its traffic.
func TestTimelineKeepsNewestLines(t *testing.T) {
	ctx := context.Background()
	// One request per batch: no batch window to wait out.
	c := bootFleet(t, 60, serve.Config{MaxBatch: 1}).Coord
	c.Note("start") // moves the ring's wrap point off slot 0
	want := []string{"start"}
	mat := matrix(sim.NewRNG(61), 0)
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

// TestRandomSchedules drives seeded random sequences of route, kill,
// restart and promote over three replicas, never killing the last live one.
// No request is dropped; after every failed promotion and every restart,
// each live replica, the restarted one included, serves the digest the
// fleet last rolled out; and a seed replays to a byte-identical timeline.
func TestRandomSchedules(t *testing.T) {
	cands := []*core.Framework{train(corpus(71), 71, 5), train(corpus(72), 72, 5)}
	var reached scheduleCounts
	for _, seed := range []int64{1, 2, 3} {
		first := runSchedule(t, seed, cands, &reached)
		again := runSchedule(t, seed, cands, new(scheduleCounts))
		if !slices.Equal(first, again) {
			t.Fatalf("seed %d: two runs wrote different timelines (%d and %d lines)", seed, len(first), len(again))
		}
	}
	if reached.retries == 0 || reached.failed == 0 || reached.promoted == 0 || reached.rejoined == 0 {
		t.Fatalf("schedules never reached every case: %+v", reached)
	}
}

// scheduleCounts tallies the cases a schedule reached: failed-over
// requests, failed and successful promotions, and restarts of killed
// replicas.
type scheduleCounts struct{ retries, failed, promoted, rejoined int }

// runSchedule plays 60 seeded steps on a fresh fleet, adds the cases it
// reached to n, and returns the fleet's timeline.
func runSchedule(t *testing.T, seed int64, cands []*core.Framework, n *scheduleCounts) []string {
	t.Helper()
	ctx := context.Background()
	f := bootFleet(t, seed)
	rng := sim.NewRNG(seed)
	up, live := []bool{true, true, true}, 3
	digest := f.Servers[0].ModelDigest()
	expectOneDigest := func(step int, op string) {
		t.Helper()
		for i, s := range f.Servers {
			if got := s.ModelDigest(); up[i] && got != digest {
				t.Fatalf("seed %d step %d: after %s, %s serves %s, want %s", seed, step, op, f.Names[i], got, digest)
			}
		}
	}
	for step := 0; step < 60; step++ {
		i := rng.Intn(len(up))
		switch op := rng.Intn(10); {
		case op < 5:
			key := fmt.Sprintf("k%02d", step)
			if _, err := f.Coord.Predict(ctx, key, matrix(rng, 0)); err != nil {
				t.Fatalf("seed %d step %d: %s dropped with live replicas %v: %v", seed, step, key, up, err)
			}
		case op < 6:
			if up[i] && live > 1 {
				f.Kill(i)
				up[i], live = false, live-1
			}
		case op < 8:
			if err := f.Restart(i); err != nil {
				t.Fatal(err)
			}
			if !up[i] {
				up[i], live = true, live+1
				n.rejoined++
			}
			expectOneDigest(step, "restart "+f.Names[i])
		default:
			cand := cands[rng.Intn(len(cands))]
			err := f.Coord.Promote(ctx, cand)
			if live == len(up) {
				if err != nil {
					t.Fatalf("seed %d step %d: promotion on a whole fleet: %v", seed, step, err)
				}
				digest = ml.WeightsDigest(cand.ExportWeights())
				n.promoted++
			} else {
				if !errors.Is(err, ErrPromotionFailed) {
					t.Fatalf("seed %d step %d: promotion with live replicas %v = %v, want ErrPromotionFailed", seed, step, up, err)
				}
				n.failed++
			}
			expectOneDigest(step, "promote")
		}
	}
	if got := f.Coord.Dropped(); got != 0 {
		t.Fatalf("seed %d: dropped %d requests", seed, got)
	}
	tl := f.Coord.Timeline()
	for _, line := range tl {
		if strings.HasPrefix(line, "retry ") {
			n.retries++
		}
	}
	return tl
}

// TestRandomShadowSchedules drives seeded random sequences of route, label,
// kill, restart and shadow-gated promotion over three replicas that mirror
// into one shared shadow evaluator, never killing the last live one. Labels
// join requests answered earlier, some of them twice or from before a
// reset. Every answered request is mirrored exactly once, every label is
// joined or counted unmatched, the evaluator is reset on each promoted
// model so its champion always serves what the fleet serves, and a seed
// replays to a byte-identical timeline and equal Status and Verdict.
func TestRandomShadowSchedules(t *testing.T) {
	data := corpus(81)
	models := []*core.Framework{train(data, 81, 1), train(data, 82, 8), train(data, 83, 3)}
	var reached shadowCounts
	for _, seed := range []int64{1, 2, 3} {
		first := runShadowSchedule(t, seed, models, &reached)
		again := runShadowSchedule(t, seed, models, new(shadowCounts))
		if !slices.Equal(first.timeline, again.timeline) {
			t.Fatalf("seed %d: two runs wrote different timelines (%d and %d lines)", seed, len(first.timeline), len(again.timeline))
		}
		if !reflect.DeepEqual(first.status, again.status) {
			t.Fatalf("seed %d: two runs ended on different Status:\n%+v\n%+v", seed, first.status, again.status)
		}
		if !reflect.DeepEqual(first.verdict, again.verdict) {
			t.Fatalf("seed %d: two runs ended on different Verdict:\n%+v\n%+v", seed, first.verdict, again.verdict)
		}
	}
	if reached.promoted == 0 || reached.kept == 0 || reached.failed == 0 || reached.unmatched == 0 || reached.rejoined == 0 {
		t.Fatalf("schedules never reached every case: %+v", reached)
	}
}

// shadowCounts tallies the cases a shadow schedule reached: shadow-gated
// rollouts, kept champions, rollouts that failed on a killed replica,
// unmatched labels, and restarts of killed replicas.
type shadowCounts struct{ promoted, kept, failed, unmatched, rejoined int }

// shadowRun is what a shadow schedule ends on.
type shadowRun struct {
	timeline []string
	status   shadow.Status
	verdict  shadow.GateResult
}

// runShadowSchedule plays 160 seeded steps on a fresh fleet that serves
// models[0] and taps one evaluator, with the other two models as
// challengers, and adds the cases it reached to n.
func runShadowSchedule(t *testing.T, seed int64, models []*core.Framework, n *shadowCounts) shadowRun {
	t.Helper()
	ctx := context.Background()
	names := []string{"m0", "m1", "m2"}
	cands := map[string]*core.Framework{}
	for i, name := range names {
		cands[name] = models[i]
	}
	champion := "m0"
	ev, err := shadow.New(models[0], shadow.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	challenge := func() {
		for _, name := range names {
			if name == champion {
				continue
			}
			if err := ev.AddChallenger(name, cands[name]); err != nil {
				t.Fatal(err)
			}
		}
	}
	challenge()
	cfgs := make([]serve.Config, 3)
	for i := range cfgs {
		cfgs[i] = serve.Config{Shadow: ev}
	}
	f, err := StartLocal(models[0], seed, false, cfgs...)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// answered holds every served window with its degradation; the first
	// unlabeled of them have not been labeled yet (a prefix kept in a
	// shuffled order by swapping).
	type served struct {
		mat window.Matrix
		deg float64
	}
	var answered []served
	unlabeled, sent := 0, uint64(0)
	rng := sim.NewRNG(seed)
	up, live := []bool{true, true, true}, 3
	for step := 0; step < 160; step++ {
		i := rng.Intn(len(up))
		switch op := rng.Intn(10); {
		case op < 4:
			degraded := float64(rng.Intn(2))
			mat := matrix(rng, 2*degraded)
			if _, err := f.Coord.Predict(ctx, fmt.Sprintf("k%03d", step), mat); err != nil {
				t.Fatalf("seed %d step %d: dropped with live replicas %v: %v", seed, step, up, err)
			}
			answered = append(answered, served{mat, 1 + 2*degraded})
			last := len(answered) - 1
			answered[unlabeled], answered[last] = answered[last], answered[unlabeled]
			unlabeled++
		case op < 6:
			// Label a few unlabeled windows in random order, then, one time
			// in four, a random earlier window, whose label joins only if
			// it is still pending.
			for k := 1 + rng.Intn(4); k > 0 && unlabeled > 0; k-- {
				j := rng.Intn(unlabeled)
				w := answered[j]
				unlabeled--
				answered[j], answered[unlabeled] = answered[unlabeled], w
				ev.Label(w.mat, w.deg)
				sent++
			}
			if len(answered) > 0 && rng.Intn(4) == 0 {
				w := answered[rng.Intn(len(answered))]
				ev.Label(w.mat, w.deg)
				sent++
			}
		case op < 7:
			if up[i] && live > 1 {
				f.Kill(i)
				up[i], live = false, live-1
			}
		case op < 8:
			if err := f.Restart(i); err != nil {
				t.Fatal(err)
			}
			if !up[i] {
				up[i], live = true, live+1
				n.rejoined++
			}
		default:
			verdict := ev.Verdict()
			err := f.Coord.PromoteShadowed(ctx, verdict, cands)
			switch {
			case !verdict.Promote:
				if !errors.Is(err, ErrShadowRejected) {
					t.Fatalf("seed %d step %d: kept-champion verdict = %v, want ErrShadowRejected", seed, step, err)
				}
				n.kept++
			case live < len(up):
				if !errors.Is(err, ErrPromotionFailed) {
					t.Fatalf("seed %d step %d: rollout with live replicas %v = %v, want ErrPromotionFailed", seed, step, up, err)
				}
				n.failed++
			default:
				if err != nil {
					t.Fatalf("seed %d step %d: rollout of %s on a whole fleet: %v", seed, step, verdict.Winner, err)
				}
				champion = verdict.Winner
				if err := ev.Reset(cands[champion]); err != nil {
					t.Fatal(err)
				}
				challenge()
				n.promoted++
			}
		}
	}

	run := shadowRun{timeline: f.Coord.Timeline(), verdict: ev.Verdict()}
	run.status = ev.Status() // after Verdict, which it counts
	st := run.status
	if st.Labeled+st.Unmatched != sent {
		t.Fatalf("seed %d: %d labeled + %d unmatched, want the %d labels sent", seed, st.Labeled, st.Unmatched, sent)
	}
	if st.Mirrored != uint64(len(answered)) || st.Dropped != 0 {
		t.Fatalf("seed %d: mirrored %d dropped %d, want every one of %d answers mirrored", seed, st.Mirrored, st.Dropped, len(answered))
	}
	if st.Mismatches != 0 {
		t.Fatalf("seed %d: %d labels found the fleet serving another model than the evaluator's champion", seed, st.Mismatches)
	}
	n.unmatched += int(st.Unmatched)
	return run
}
