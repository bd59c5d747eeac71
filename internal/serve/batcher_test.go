package serve

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"quanterference/internal/core"
	"quanterference/internal/dataset"
	"quanterference/internal/label"
)

// The tests below pin where the batch window starts: at the previous cut,
// or at its due time when the timer made it or it came less than a window
// late, never at a batch's first arrival. A minute-long window makes every
// wait either obvious or absent.

// TestIdleServerAnswersAtOnce: a lone request on a fresh server is cut at
// once rather than held for the window, and that cut anchors the window, so
// a request right after it waits for the rest of the minute — until
// Shutdown's flush answers it.
func TestIdleServerAnswersAtOnce(t *testing.T) {
	fw, mats := trainedFramework(t, 3, 5)
	s := New(fw, Config{BatchWindow: time.Minute})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, _, err := s.Predict(ctx, mats[0]); err != nil {
		t.Fatalf("lone Predict on an idle server: %v", err)
	}

	hctx, hcancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer hcancel()
	if _, _, err := s.Predict(hctx, mats[1]); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Predict one cut into the window: %v, want context.DeadlineExceeded", err)
	}

	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if hb := histogram(t, s.Stats(), "batch_size"); hb.Count != 2 || hb.Sum != 2 {
		t.Fatalf("batch_size count=%d sum=%g, want two batches of one (the held request flushed)", hb.Count, hb.Sum)
	}
}

// TestFullBatchCutsInsideWindow: once the window is anchored, a batch that
// fills MaxBatch is cut at once instead of at the window's end.
func TestFullBatchCutsInsideWindow(t *testing.T) {
	fw, mats := trainedFramework(t, 3, 5)
	const maxBatch = 4
	s := New(fw, Config{MaxBatch: maxBatch, BatchWindow: time.Minute})
	defer s.Shutdown(context.Background())

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, _, err := s.Predict(ctx, mats[0]); err != nil {
		t.Fatalf("anchoring Predict: %v", err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, maxBatch)
	for i := 0; i < maxBatch; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, err := s.Predict(ctx, mats[i%len(mats)])
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("request in a full batch: %v", err)
		}
	}
	if hb := histogram(t, s.Stats(), "batch_size"); hb.Count != 2 || hb.Sum != 1+maxBatch {
		t.Fatalf("batch_size count=%d sum=%g, want a batch of one, then one of %d", hb.Count, hb.Sum, maxBatch)
	}
}

// TestWindowDoesNotDrift: a batch the window timer cuts starts the next
// window at its due time, not when the timer fired, so back-to-back callers
// wait one window per batch rather than one window plus the timer's
// lateness. Two callers think for a tenth of the window after every
// answer, so every batch after the first (idle) one waits for its timer,
// and the answer to round n comes n windows after the first cut plus only
// the last timer's lateness. Starting each window when the timer fired adds
// every timer's lateness instead: about 0.5 ms a cut on Linux, where the
// runtime sleeps an idle process in whole milliseconds, so about 15 ms by
// round 30. The test takes the smallest excess over the last ten rounds and
// both callers, so a late final timer, or a caller that stalls and answers
// one batch later, does not fail it; the long window keeps a stall on a
// busy machine from leaving the window idle.
func TestWindowDoesNotDrift(t *testing.T) {
	const (
		window = 25 * time.Millisecond
		think  = window / 10
		rounds = 40
	)
	fw, mats := trainedFramework(t, 3, 5)
	s := New(fw, Config{BatchWindow: window})
	defer s.Shutdown(context.Background())

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, _, err := s.Predict(ctx, mats[0]); err != nil {
		t.Fatalf("first Predict on an idle server: %v", err)
	}
	start := time.Now() // the idle cut started the first window just before
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	answered := [2][rounds]time.Duration{}
	for c := range answered {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				time.Sleep(think)
				if _, _, err := s.Predict(ctx, mats[c]); err != nil {
					errs <- err
					return
				}
				answered[c][i] = time.Since(start)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("Predict: %v", err)
	}

	drift := time.Duration(math.MaxInt64)
	for i := rounds - 10; i < rounds; i++ {
		for c := range answered {
			drift = min(drift, answered[c][i]-time.Duration(i+1)*window)
		}
	}
	t.Logf("round answers exceed their windows by %v at the least over the last ten rounds", drift)
	if drift > window/5 {
		t.Fatalf("after %d rounds the answers came %v after %d windows: each window inherited the previous timer's lateness", rounds, drift, rounds)
	}
}

// TestLateCutKeepsDueTime: a request that arrives less than a window after
// the window's due time is cut at once, and that cut starts the next window
// at the due time, not at the cut, so whatever made the request late does
// not stretch the next window. A request sent right after it waits for the
// rest of that window, about half a window here, not a whole window from
// the cut.
func TestLateCutKeepsDueTime(t *testing.T) {
	const window = 200 * time.Millisecond
	fw, mats := trainedFramework(t, 3, 5)
	s := New(fw, Config{BatchWindow: window})
	defer s.Shutdown(context.Background())

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, _, err := s.Predict(ctx, mats[0]); err != nil {
		t.Fatalf("first Predict on an idle server: %v", err)
	}
	time.Sleep(window * 3 / 2) // the idle cut's window is half a window overdue

	start := time.Now()
	if _, _, err := s.Predict(ctx, mats[1]); err != nil {
		t.Fatalf("late Predict: %v", err)
	}
	if took := time.Since(start); took > window/4 {
		t.Fatalf("Predict half a window past the due time took %v, want it cut at once", took)
	}
	start = time.Now()
	if _, _, err := s.Predict(ctx, mats[2]); err != nil {
		t.Fatalf("Predict after the late cut: %v", err)
	}
	if took := time.Since(start); took > window*3/4 {
		t.Fatalf("Predict right after a late cut took %v, want the rest of the window (about %v), not a whole window from the cut", took, window/2)
	}
}

// gatedModel holds every ProbsInto call until release is closed, and
// signals entered (when it has room) as each call begins. The embedded
// slowModel supplies the training methods it never uses.
type gatedModel struct {
	slowModel
	entered chan struct{}
	release chan struct{}
}

func (m gatedModel) ProbsInto(dst []float64, vectors [][]float64) []float64 {
	select {
	case m.entered <- struct{}{}:
	default:
	}
	<-m.release
	return append(dst[:0], 0.75, 0.25)
}

// TestQueueDepthGaugeFollowsDrain: serve/queue_depth falls as the batcher
// takes requests off the queue, not only rises as Predict adds them. The
// gated model holds the batcher while three requests queue one at a time;
// once all four are answered the queue is empty and the gauge must say so.
func TestQueueDepthGaugeFollowsDrain(t *testing.T) {
	_, mats := trainedFramework(t, 3, 5)
	m := gatedModel{entered: make(chan struct{}, 1), release: make(chan struct{})}
	fw := &core.Framework{
		Bins:   label.BinaryBins(),
		Model:  m,
		Scaler: &dataset.Scaler{Mean: make([]float64, 5), Std: []float64{1, 1, 1, 1, 1}},
	}
	s := New(fw, Config{})
	defer s.Shutdown(context.Background())

	errs := make(chan error, 4)
	predict := func(i int) {
		go func() {
			_, _, err := s.Predict(context.Background(), mats[i])
			errs <- err
		}()
	}
	predict(0)
	<-m.entered // the batcher is inside the model
	for i := 1; i <= 3; i++ {
		predict(i)
		deadline := time.Now().Add(5 * time.Second)
		for s.gQueueDepth.Value() != float64(i) {
			if time.Now().After(deadline) {
				t.Fatalf("queue_depth never reached %d", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	close(m.release)
	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("Predict: %v", err)
		}
	}
	if got := s.gQueueDepth.Value(); got != 0 || len(s.queue) != 0 {
		t.Fatalf("queue_depth = %g with %d queued, want 0: the gauge kept a drained backlog", got, len(s.queue))
	}
}
