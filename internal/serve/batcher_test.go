package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"quanterference/internal/core"
	"quanterference/internal/dataset"
	"quanterference/internal/label"
)

// The tests below pin where the batch window starts: at the previous cut,
// or at its due time when the timer made it or it came less than a window
// late, never at a batch's first arrival. They set their own window through
// newWithWindow: a minute-long one makes every wait either obvious or
// absent, and the two window-start tests read the cuts the batcher records
// rather than the wall-clock times of its answers.

// TestIdleServerAnswersAtOnce: a lone request on a fresh server is cut at
// once rather than held for the window, and that cut anchors the window, so
// a request right after it waits for the rest of the minute — until
// Shutdown's flush answers it.
func TestIdleServerAnswersAtOnce(t *testing.T) {
	fw, mats := trainedFramework(t, 3, 5)
	s, _ := newWithWindow(fw, Config{}, time.Minute)

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
	s, _ := newWithWindow(fw, Config{MaxBatch: maxBatch}, time.Minute)
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

// checkWindowStarts asserts the window-start rule on every recorded cut
// after the first: a timer cut, or a cut at once less than a window past
// its due time, starts the next window exactly one window after the
// previous start (that is, at its due time), and a cut at once a whole
// window or more past the due time starts it at least two windows after
// the previous start. The steps are exact differences of monotonic times,
// so how late a timer fired or how long a caller stalled cannot move them.
// It returns how many cuts of each kind it saw.
func checkWindowStarts(t *testing.T, cuts []windowCut, window time.Duration) map[cut]int {
	t.Helper()
	seen := map[cut]int{}
	for i, c := range cuts {
		seen[c.kind]++
		if i == 0 {
			continue
		}
		step := c.start.Sub(cuts[i-1].start)
		switch c.kind {
		case cutTimer, cutLate:
			if step != window {
				t.Errorf("cut %d (%v) started the next window %v after the previous start, want exactly %v", i, c.kind, step, window)
			}
		case cutIdle:
			if step < 2*window {
				t.Errorf("idle cut %d started the next window %v after the previous start, want at least %v", i, step, 2*window)
			}
		}
	}
	return seen
}

// TestWindowDoesNotDrift: a batch the window timer cuts starts the next
// window at its due time, not when the timer fired, so back-to-back callers
// wait one window per batch rather than one window plus the timer's
// lateness (about 0.5 ms a cut on Linux, where the runtime sleeps an idle
// process in whole milliseconds). Two callers think for a tenth of the
// window after every answer, so the batches after the first (idle) one wait
// for their timer. Halfway through, both pause for one and a half windows
// instead, so the next request comes half a window past its due time and
// is cut at once, which must not stretch the next window either. The test
// asserts on the window starts the batcher records, not on when answers
// came, so a busy machine that stalls the batcher or its callers can change
// which kind of cut a batch gets, but not where the next window starts.
func TestWindowDoesNotDrift(t *testing.T) {
	const (
		window = 25 * time.Millisecond
		think  = window / 10
		pause  = window * 3 / 2
		rounds = 40
	)
	fw, mats := trainedFramework(t, 3, 5)
	s, log := newWithWindow(fw, Config{}, window)
	defer s.Shutdown(context.Background())

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, _, err := s.Predict(ctx, mats[0]); err != nil {
		t.Fatalf("first Predict on an idle server: %v", err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if i == rounds/2 {
					time.Sleep(pause)
				} else {
					time.Sleep(think)
				}
				if _, _, err := s.Predict(ctx, mats[c]); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("Predict: %v", err)
	}

	cuts := log.snapshot()
	seen := checkWindowStarts(t, cuts, window)
	t.Logf("%d cuts: %d timer, %d late, %d idle, %d full", len(cuts), seen[cutTimer], seen[cutLate], seen[cutIdle], seen[cutFull])
	if seen[cutTimer] == 0 {
		t.Fatalf("no batch of %d rounds waited for the window timer: the test checked nothing", rounds)
	}
}

// TestLateCutKeepsDueTime: a request that arrives less than a window after
// the window's due time is cut at once, and that cut starts the next window
// at the due time, not at the cut, so whatever made the request late does
// not stretch the next window: a request sent right after it waits for the
// rest of that window, about half a window here, not a whole window from
// the cut. A stall that makes the late request a whole window late turns
// its cut into an idle one; the test then tries again, up to five times.
func TestLateCutKeepsDueTime(t *testing.T) {
	const (
		window = 200 * time.Millisecond
		tries  = 5
	)
	fw, mats := trainedFramework(t, 3, 5)
	s, log := newWithWindow(fw, Config{}, window)
	defer s.Shutdown(context.Background())

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	predict := func(i int) windowCut {
		t.Helper()
		if _, _, err := s.Predict(ctx, mats[i%len(mats)]); err != nil {
			t.Fatalf("Predict: %v", err)
		}
		cuts := log.snapshot()
		return cuts[len(cuts)-1]
	}
	predict(0) // an idle cut starts the first window
	for try := 1; ; try++ {
		time.Sleep(window * 3 / 2) // the window is half a window overdue
		if c := predict(try); c.kind == cutLate {
			break
		} else if try == tries {
			t.Fatalf("no request of %d came less than a window past its due time (last cut %v)", tries, c.kind)
		}
	}
	predict(tries + 1) // right after the late cut: held for the rest of its window
	checkWindowStarts(t, log.snapshot(), window)
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
