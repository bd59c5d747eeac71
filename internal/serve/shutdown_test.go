package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"quanterference/internal/obs"
)

// The tests below pin the shutdown edges around abandoned requests. The
// admission gate means Shutdown only closes the stop channel once every
// caller still inside Predict/Forecast has returned — so the requests a
// closing server finds mid-gather or queued are exactly those whose callers
// gave up (context canceled between enqueue and answer). Each one must still
// be answered into its buffered channel exactly once: a drop would leak the
// response a late reader expects, a double-send would block the batcher and
// hang Shutdown. Run under -race in make verify.

// histogram pulls one named serve histogram out of a snapshot.
func histogram(t *testing.T, snap *obs.Snapshot, name string) obs.HistogramValue {
	t.Helper()
	for _, hv := range snap.Histograms {
		if hv.Key.Component == "serve" && hv.Key.Name == name {
			return hv
		}
	}
	t.Fatalf("histogram serve/%s not in snapshot", name)
	return obs.HistogramValue{}
}

// TestShutdownFlushesPartialGather pins the stop-during-gather edge: with a
// batch window far longer than the test and fewer requests than MaxBatch,
// the batcher sits in gather holding a partial batch of abandoned requests
// when Shutdown closes stop. The flush must answer that batch exactly once —
// one response per request, one batch observed, no re-observe by drain.
func TestShutdownFlushesPartialGather(t *testing.T) {
	fw, mats := trainedFramework(t, 3, 5)
	s, _ := newWithWindow(fw, Config{MaxBatch: 32, MaxInflight: 64}, time.Minute)

	// An idle server cuts a request at once, so the abandoned requests would
	// never be held. A first request, answered before they queue, anchors the
	// minute-long window that parks the batcher in gather.
	actx, acancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer acancel()
	if _, _, err := s.Predict(actx, mats[0]); err != nil {
		t.Fatalf("anchoring Predict: %v", err)
	}

	// Abandoned requests, injected the way a ctx-canceled Predict leaves
	// them: enqueued, caller gone, not registered with the inflight gate.
	const n = 5
	reqs := make([]*request, n)
	for i := range reqs {
		reqs[i] = &request{mat: mats[i%len(mats)], resp: make(chan response, 1), enq: time.Now()}
		s.queue <- reqs[i]
	}
	// Wait until the batcher has pulled all n into its gather batch; the
	// minute-long window then parks it until stop.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("batcher never picked up the queue")
		}
		time.Sleep(time.Millisecond)
	}

	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	for i, req := range reqs {
		select {
		case r := <-req.resp:
			if len(r.probs) != 2 {
				t.Fatalf("request %d malformed response %+v", i, r)
			}
		default:
			t.Fatalf("request %d never answered", i)
		}
		select {
		case <-req.resp:
			t.Fatalf("request %d answered twice", i)
		default:
		}
	}
	hb := histogram(t, s.Stats(), "batch_size")
	if hb.Count != 2 || hb.Sum != 1+n {
		t.Fatalf("batch_size count=%d sum=%g, want the anchoring batch of 1, then one batch of %d", hb.Count, hb.Sum, n)
	}
}

// TestShutdownDrainAnswersQueuedStragglers pins the drain edge: requests
// still sitting in the queue when stop closes (Shutdown racing the batcher's
// pickup) are answered by gather's flush and drain between them — every
// straggler exactly once, in MaxBatch-sized cuts.
func TestShutdownDrainAnswersQueuedStragglers(t *testing.T) {
	fw, mats := trainedFramework(t, 3, 5)
	s, _ := newWithWindow(fw, Config{MaxBatch: 2, MaxInflight: 64}, time.Minute)

	const n = 7
	reqs := make([]*request, n)
	for i := range reqs {
		reqs[i] = &request{mat: mats[i%len(mats)], resp: make(chan response, 1), enq: time.Now()}
		s.queue <- reqs[i]
	}
	// Shut down immediately: no inflight callers, so stop closes while most
	// (racily, possibly all) of the queue is still unclaimed.
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	for i, req := range reqs {
		select {
		case r := <-req.resp:
			if len(r.probs) != 2 {
				t.Fatalf("straggler %d malformed response %+v", i, r)
			}
		default:
			t.Fatalf("straggler %d never answered", i)
		}
		select {
		case <-req.resp:
			t.Fatalf("straggler %d answered twice", i)
		default:
		}
	}
	hb := histogram(t, s.Stats(), "batch_size")
	if hb.Sum != n {
		t.Fatalf("batch_size Sum = %g, want %d (each request observed exactly once)", hb.Sum, n)
	}
	// MaxBatch 2 forces ceil(7/2) = 4 cuts at minimum, however the
	// gather/drain race resolves.
	if hb.Count < 4 {
		t.Fatalf("batch_size Count = %d, want >= 4 cuts of <= 2", hb.Count)
	}
}

// TestShutdownForecastStragglers pins the forecast path's cancellation edge:
// a caller whose ctx ends while another forecast holds the model lock returns
// context.Canceled without running the model, and Shutdown still returns
// while the lock stays held — the canceled caller has left the admission gate.
func TestShutdownForecastStragglers(t *testing.T) {
	fw, _ := trainedFramework(t, 3, 5)
	s := New(fw, Config{Forecaster: testForecaster(4, 5, []int{1, 2})})
	hist := testHistories(1, 4, 3, 5)[0]

	s.fmu <- struct{}{} // a forecast in progress holds the lock
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := s.Forecast(ctx, hist)
		errCh <- err
	}()
	// Cancel only once the caller holds an admission slot, i.e. it is past
	// every check and waiting for the lock.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.fslots) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("forecast caller never reached the lock")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled forecast caller: %v", err)
	}

	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if hv := histogram(t, s.Stats(), "forecast_model_ns"); hv.Count != 0 {
		t.Fatalf("forecast_model_ns count = %d, want 0: the canceled caller ran the model", hv.Count)
	}
	if len(s.fslots) != 0 {
		t.Fatalf("canceled caller kept its admission slot (%d held)", len(s.fslots))
	}
	if _, err := s.Forecast(context.Background(), hist); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-shutdown Forecast: %v", err)
	}
}

// TestShutdownWithCanceledCallers drives the caller-side path end to end:
// callers whose contexts are already dead pass admission, enqueue, and
// return ctx.Err — and Shutdown still answers every orphaned request without
// hanging or double-observing.
func TestShutdownWithCanceledCallers(t *testing.T) {
	fw, mats := trainedFramework(t, 3, 5)
	s, _ := newWithWindow(fw, Config{MaxBatch: 8, MaxInflight: 64}, time.Minute)

	// An idle server answers a request at once, so a dead caller's reply
	// could be ready beside its ctx.Done() and Go would pick either. A first
	// request, answered before the dead callers queue, anchors the
	// minute-long window: their batch cannot close before Shutdown, so
	// ctx.Done() is the only ready case each of them sees.
	actx, acancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer acancel()
	if _, _, err := s.Predict(actx, mats[0]); err != nil {
		t.Fatalf("anchoring Predict: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	const abandoned = 6
	for i := 0; i < abandoned; i++ {
		if _, _, err := s.Predict(ctx, mats[i%len(mats)]); !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled caller %d: %v", i, err)
		}
	}

	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	snap := s.Stats()
	hb := histogram(t, snap, "batch_size")
	// However the batcher's pickup raced the enqueues, each orphaned request
	// is observed exactly once across the gather flush and drain, beside the
	// anchoring request's batch of one.
	if hb.Sum != 1+abandoned {
		t.Fatalf("batch_size Sum = %g, want %d", hb.Sum, 1+abandoned)
	}
	if v, _ := snap.Counter("serve", "", "requests"); v != 1+abandoned {
		t.Fatalf("requests = %d, want %d", v, 1+abandoned)
	}
	if _, _, err := s.Predict(context.Background(), mats[0]); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-shutdown Predict: %v", err)
	}
}
