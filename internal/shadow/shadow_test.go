package shadow

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"quanterference/internal/core"
	"quanterference/internal/dataset"
	"quanterference/internal/ml"
	"quanterference/internal/monitor/window"
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
	twin := Score{Name: "twin", Samples: st.Champion.Samples,
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

	ev.SetMargin(RejectAll) // forced-reject drill
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

	run := func() (Status, GateResult) {
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
