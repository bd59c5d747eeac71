package shadow

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"quanterference/internal/core"
	"quanterference/internal/dataset"
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

// trainedFramework trains a small 2-class framework; seed varies the weights
// and epochs varies the quality, so tests can build weak champions and
// strong challengers from the same data distribution.
func trainedFramework(tb testing.TB, seed int64, epochs int) *core.Framework {
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
	fw, _, err := core.TrainFrameworkE(ds, core.FrameworkConfig{Seed: seed, Train: ml.TrainConfig{Epochs: epochs}})
	if err != nil {
		tb.Fatal(err)
	}
	return fw
}

// labeledStream generates n (matrix, degradation) pairs from the training
// distribution: even indices are healthy (degradation 1 → class 0), odd are
// degraded (degradation 3 → class 1) under the default binary bins.
func labeledStream(rng *sim.RNG, n int) ([]window.Matrix, []float64) {
	mats := make([]window.Matrix, n)
	degs := make([]float64, n)
	for i := range mats {
		mat := make(window.Matrix, testTargets)
		for t := range mat {
			row := make([]float64, testFeat)
			for f := range row {
				row[f] = rng.NormFloat64() + 2*float64(i%2)
			}
			mat[t] = row
		}
		mats[i] = mat
		degs[i] = 1 + 2*float64(i%2)
	}
	return mats, degs
}

// TestScoringCorrectness pins the scoreboard arithmetic: a challenger with
// the champion's exact weights scores identically to the champion, accuracy
// matches a hand count against the true bins, and the labeled/verdict
// counters line up.
func TestScoringCorrectness(t *testing.T) {
	champ := trainedFramework(t, 1, 5)
	ev, err := New(champ, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.AddChallenger("twin", champ); err != nil {
		t.Fatal(err)
	}
	if err := ev.AddChallenger("weak", trainedFramework(t, 2, 1)); err != nil {
		t.Fatal(err)
	}

	mats, degs := labeledStream(sim.NewRNG(9), 32)
	hits := 0
	for i, mat := range mats {
		cls, _ := champ.Predict(mat)
		ev.Mirror(mat, cls)
		if cls == champ.Bins.Label(degs[i]) {
			hits++
		}
	}
	for i, mat := range mats {
		if !ev.Label(mat, degs[i]) {
			t.Fatalf("label %d found no mirrored event", i)
		}
	}

	st := ev.Status()
	wantAcc := float64(hits) / float64(len(mats))
	if st.Champion.Samples != 32 || st.Champion.Accuracy != wantAcc {
		t.Fatalf("champion score %+v, want %d samples at %.4f", st.Champion, 32, wantAcc)
	}
	twin := serve.ShadowCandidate{Name: "twin", Samples: st.Champion.Samples,
		Accuracy: st.Champion.Accuracy, CE: st.Champion.CE}
	if st.Challengers[0] != twin {
		t.Fatalf("twin scored %+v, champion %+v — identical weights must score identically", st.Challengers[0], st.Champion)
	}
	if st.Labeled != 32 || st.Unmatched != 0 || st.Mismatches != 0 || st.Pending != 0 {
		t.Fatalf("counters %+v", st)
	}

	// A label whose matrix was never served is unmatched, not scored.
	stray, strayDeg := labeledStream(sim.NewRNG(77), 1)
	if ev.Label(stray[0], strayDeg[0]) {
		t.Fatal("label for never-served traffic claimed a match")
	}
	if st := ev.Status(); st.Unmatched != 1 || st.Champion.Samples != 32 {
		t.Fatalf("unmatched label perturbed the scoreboard: %+v", st)
	}
}

// TestAddChallengerValidation pins the registration guards: duplicate names,
// shape mismatches, and the challenger cap are all refused.
func TestAddChallengerValidation(t *testing.T) {
	champ := trainedFramework(t, 3, 2)
	ev, err := New(champ, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.AddChallenger("c0", champ); err != nil {
		t.Fatal(err)
	}
	if err := ev.AddChallenger("c0", champ); !errors.Is(err, ErrDuplicateChallenger) {
		t.Fatalf("duplicate name = %v", err)
	}
	if err := ev.AddChallenger("", champ); err == nil {
		t.Fatal("empty name accepted")
	}
	for i := 1; i < maxChallengers; i++ {
		if err := ev.AddChallenger(fmt.Sprintf("c%d", i), champ); err != nil {
			t.Fatal(err)
		}
	}
	if err := ev.AddChallenger("over", champ); !errors.Is(err, ErrTooManyChallengers) {
		t.Fatalf("over-cap registration = %v", err)
	}
	if n := len(ev.Challengers()); n != maxChallengers {
		t.Fatalf("%d challengers registered, want the cap %d", n, maxChallengers)
	}
}

// TestMirrorDropPath pins the backpressure contract: a full queue sheds
// offers without blocking, counts every drop, and the mirrored/dropped split
// is exact.
func TestMirrorDropPath(t *testing.T) {
	champ := trainedFramework(t, 4, 2)
	ev, err := New(champ, Config{QueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	mats, _ := labeledStream(sim.NewRNG(5), 10)
	for _, mat := range mats {
		ev.Mirror(mat, 0) // nobody drains: everything past QueueCap drops
	}
	st := ev.Status()
	if st.Mirrored != 2 || st.Dropped != 8 || st.QueueDepth != 2 {
		t.Fatalf("mirrored %d dropped %d depth %d, want 2/8/2", st.Mirrored, st.Dropped, st.QueueDepth)
	}
}

// TestPendingEviction pins the bounded join table: pending events beyond
// pendingCap evict oldest-first, an evicted event's label comes back
// unmatched, and the newest events stay joinable.
func TestPendingEviction(t *testing.T) {
	champ := trainedFramework(t, 6, 2)
	n := pendingCap + 6
	ev, err := New(champ, Config{QueueCap: n})
	if err != nil {
		t.Fatal(err)
	}
	mats, degs := labeledStream(sim.NewRNG(8), n)
	for _, mat := range mats {
		ev.Mirror(mat, 0)
	}
	ev.Sync()
	if st := ev.Status(); st.Pending != pendingCap || st.Evicted != 6 {
		t.Fatalf("pending %d evicted %d, want %d/6", st.Pending, st.Evicted, pendingCap)
	}
	if ev.Label(mats[0], degs[0]) {
		t.Fatal("evicted event still labeled")
	}
	if !ev.Label(mats[n-1], degs[n-1]) {
		t.Fatal("newest event lost to eviction")
	}
}

// TestPendingHoldsNoMatrices pins the join table's memory: a full table of
// pendingCap mirrored 7x34 matrices costs well under the matrices' own size
// (~2 KB each here, ~3.6 KB JSON-decoded), because a pending event is one
// 16-byte FIFO value holding the matrix's hash and the served class.
func TestPendingHoldsNoMatrices(t *testing.T) {
	ev, err := New(trainedFramework(t, 7, 1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	n := pendingCap
	before := heap()
	for i := 0; i < n; i++ {
		mat := make(window.Matrix, 7)
		for r := range mat {
			row := make([]float64, 34)
			for f := range row {
				row[f] = float64((i*7+r)*34 + f)
			}
			mat[r] = row
		}
		ev.Mirror(mat, i%2)
		if (i+1)%ev.cfg.QueueCap == 0 {
			ev.Sync() // keep the bounded mirror queue from shedding
		}
	}
	ev.Sync()
	perEvent := (heap() - before) / int64(n)
	if st := ev.Status(); st.Pending != n || st.Dropped != 0 {
		t.Fatalf("pending %d dropped %d, want %d/0", st.Pending, st.Dropped, n)
	}
	t.Logf("%d B per pending event", perEvent)
	if perEvent >= 64 {
		t.Fatalf("join table holds %d B per pending event, want < 64: matrices or per-event heap entries are being retained", perEvent)
	}
}

// TestVerdictMarginAndForceReject walks the gate end to end on real scores:
// a strong challenger against a weak champion promotes, and the forced-reject
// margin keeps the incumbent on the same scoreboard.
func TestVerdictMarginAndForceReject(t *testing.T) {
	champ := trainedFramework(t, 10, 1) // barely trained champion
	ev, err := New(champ, Config{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.AddChallenger("strong", trainedFramework(t, 11, 8)); err != nil {
		t.Fatal(err)
	}

	mats, degs := labeledStream(sim.NewRNG(12), 64)
	for _, mat := range mats {
		cls, _ := champ.Predict(mat)
		ev.Mirror(mat, cls)
	}
	for i, mat := range mats {
		ev.Label(mat, degs[i])
	}

	g := ev.Verdict()
	if !g.Promote || g.Winner != "strong" {
		t.Fatalf("verdict %+v, want strong promoted (champion %.3f vs %.3f)", g, g.IncumbentAccuracy, g.CandidateAccuracy)
	}

	ev.SetMargin(2) // forced-reject drill: impossible bar
	if g := ev.Verdict(); g.Promote || g.Winner != "" {
		t.Fatalf("forced-reject verdict still promoted: %+v", g)
	}
	if st := ev.Status(); st.Verdicts != 2 {
		t.Fatalf("verdict counter %d, want 2", st.Verdicts)
	}
}

// TestResetStartsNewEpoch pins the promotion handoff: Reset clears the
// challenger set, every score, and the join table, and scores the new
// champion from zero.
func TestResetStartsNewEpoch(t *testing.T) {
	champ := trainedFramework(t, 13, 2)
	ev, err := New(champ, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.AddChallenger("c0", champ); err != nil {
		t.Fatal(err)
	}
	mats, degs := labeledStream(sim.NewRNG(14), 8)
	for i, mat := range mats {
		cls, _ := champ.Predict(mat)
		ev.Mirror(mat, cls)
		ev.Label(mat, degs[i])
	}
	ev.Mirror(mats[0], 0) // queued but undrained: Reset must discard it

	next := trainedFramework(t, 15, 4)
	if err := ev.Reset(next); err != nil {
		t.Fatal(err)
	}
	st := ev.Status()
	if st.Champion.Samples != 0 || len(st.Challengers) != 0 || st.Pending != 0 || st.QueueDepth != 0 {
		t.Fatalf("post-reset state %+v, want an empty epoch", st)
	}
	if g := ev.Verdict(); g.Promote || g.Scores != nil {
		t.Fatalf("post-reset verdict %+v", g)
	}
	// The old epoch's queued event is gone: its label is unmatched now.
	if ev.Label(mats[0], degs[0]) {
		t.Fatal("pre-reset mirror event survived the epoch change")
	}
}

// TestDeterminismConcurrentMirror is the same-seed determinism suite: two
// evaluators fed the same events by 16 concurrent mirror goroutines each
// (racing Status probes included), then labeled by a single feeder in one
// order, must agree bit-for-bit on scoreboard and verdict. Run under -race.
func TestDeterminismConcurrentMirror(t *testing.T) {
	champ := trainedFramework(t, 20, 1)
	strong := trainedFramework(t, 21, 8)
	mid := trainedFramework(t, 22, 3)
	mats, degs := labeledStream(sim.NewRNG(23), 96)
	classes := make([]int, len(mats))
	for i, mat := range mats {
		classes[i], _ = champ.Predict(mat)
	}

	run := func() (serve.ShadowStatus, online.GateResult) {
		ev, err := New(champ, Config{Seed: 20, QueueCap: 256})
		if err != nil {
			t.Fatal(err)
		}
		if err := ev.AddChallenger("strong", strong); err != nil {
			t.Fatal(err)
		}
		if err := ev.AddChallenger("mid", mid); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(mats); i += 16 {
					ev.Mirror(mats[i], classes[i])
				}
				ev.Status() // racing reads must not perturb anything
			}(g)
		}
		wg.Wait()
		for i, mat := range mats {
			if !ev.Label(mat, degs[i]) {
				t.Fatalf("label %d unmatched; queue sized to hold the whole episode", i)
			}
		}
		return ev.Status(), ev.Verdict()
	}

	st1, g1 := run()
	st2, g2 := run()
	if !reflect.DeepEqual(st1, st2) {
		t.Fatalf("same-seed scoreboards diverged:\n%+v\n%+v", st1, st2)
	}
	if !reflect.DeepEqual(g1, g2) {
		t.Fatalf("same-seed verdicts diverged:\n%+v\n%+v", g1, g2)
	}
}

// TestServeMirrorTapAndEndpoint drives the full serving integration: traffic
// predicted over HTTP is mirrored and scoreable, /v1/shadow serves the
// scoreboard through the typed client, and a server without an evaluator
// answers with ErrNoShadow.
func TestServeMirrorTapAndEndpoint(t *testing.T) {
	ctx := context.Background()
	champ := trainedFramework(t, 30, 2)
	served, err := champ.Clone()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := New(champ, Config{Seed: 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.AddChallenger("c0", trainedFramework(t, 31, 4)); err != nil {
		t.Fatal(err)
	}

	s := serve.New(served, serve.Config{Shadow: ev})
	defer s.Shutdown(ctx)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := serve.NewClient(ts.URL)

	mats, degs := labeledStream(sim.NewRNG(32), 16)
	for _, mat := range mats {
		if _, err := c.Predict(ctx, mat); err != nil {
			t.Fatal(err)
		}
	}
	for i, mat := range mats {
		if !ev.Label(mat, degs[i]) {
			t.Fatalf("served request %d not joinable: the batcher mirrors before answering", i)
		}
	}

	st, err := c.ShadowStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mirrored != 16 || st.Labeled != 16 || st.Champion.Samples != 16 {
		t.Fatalf("shadow status over HTTP %+v", st)
	}
	if len(st.Challengers) != 1 || st.Challengers[0].Name != "c0" || st.Challengers[0].Samples != 16 {
		t.Fatalf("challenger row %+v", st.Challengers)
	}

	// No evaluator attached: typed 404.
	bare := serve.New(served, serve.Config{})
	defer bare.Shutdown(ctx)
	bareTS := httptest.NewServer(bare.Handler())
	defer bareTS.Close()
	if _, err := serve.NewClient(bareTS.URL).ShadowStatus(ctx); !errors.Is(err, serve.ErrNoShadow) {
		t.Fatalf("shadowless server = %v, want ErrNoShadow", err)
	}
}

// TestDropsNeverPerturbChampion is the hot-path isolation suite: a server
// whose shadow queue is one slot deep (almost every mirror drops) must
// answer 16 concurrent clients bit-identically to a shadowless server with
// the same weights. Run under -race.
func TestDropsNeverPerturbChampion(t *testing.T) {
	ctx := context.Background()
	champ := trainedFramework(t, 40, 3)
	fwA, err := champ.Clone()
	if err != nil {
		t.Fatal(err)
	}
	fwB, err := champ.Clone()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := New(champ, Config{QueueCap: 1}) // nobody drains: mirrors drop
	if err != nil {
		t.Fatal(err)
	}

	withShadow := serve.New(fwA, serve.Config{Shadow: ev})
	defer withShadow.Shutdown(ctx)
	tsA := httptest.NewServer(withShadow.Handler())
	defer tsA.Close()
	without := serve.New(fwB, serve.Config{})
	defer without.Shutdown(ctx)
	tsB := httptest.NewServer(without.Handler())
	defer tsB.Close()
	cA, cB := serve.NewClient(tsA.URL), serve.NewClient(tsB.URL)

	mats, _ := labeledStream(sim.NewRNG(41), 8)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				mat := mats[(g+i)%len(mats)]
				ra, err := cA.Predict(ctx, mat)
				if err != nil {
					errs <- err
					return
				}
				rb, err := cB.Predict(ctx, mat)
				if err != nil {
					errs <- err
					return
				}
				if ra.Class != rb.Class || len(ra.Probs) != len(rb.Probs) {
					errs <- fmt.Errorf("shadowed reply diverged: %+v vs %+v", ra, rb)
					return
				}
				for p := range ra.Probs {
					if math.Float64bits(ra.Probs[p]) != math.Float64bits(rb.Probs[p]) {
						errs <- fmt.Errorf("prob %d diverged: %x vs %x", p, ra.Probs[p], rb.Probs[p])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := ev.Status()
	if st.Dropped == 0 {
		t.Fatal("drop path never exercised; shrink the queue")
	}
	if st.Mirrored+st.Dropped != 16*8 {
		t.Fatalf("mirror accounting %d+%d, want %d offers", st.Mirrored, st.Dropped, 16*8)
	}
}
