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

// The tests below pin where the batch window is anchored: at the previous
// cut, not at a batch's first arrival. A minute-long window makes every
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
