// Package serve is the online inference service around a trained
// core.Framework — the deployment shape of the paper's Figure 2 runtime
// path, where one prediction service answers window-classification queries
// from many monitoring agents at once.
//
// Concurrency model: the Framework's Predict/PredictBatch reuse internal
// scratch and are not goroutine-safe, so the server funnels every prediction
// through a single batcher goroutine. Concurrent requests are gathered into
// one PredictBatch call of at most MaxBatch requests. A fixed 1 ms window
// spaces batches apart: every cut starts a window that is due 1 ms later,
// and a cut made less than a window after its due time starts the next
// window at that due time, so lateness never stretches a window. 1 ms is
// the shortest wait Go's runtime times in an idle process, which sleeps in
// whole milliseconds. An idle server (its window already due) answers a
// request at once, while requests arriving before the due time still share
// a batch. PredictBatch is bit-identical to per-input Predict, so batching
// composition never changes an answer — a property the tests pin down under
// -race with dozens of concurrent clients. Forecasts have no batched entry
// point, so they skip the batcher: each caller takes a one-slot lock and
// runs Forecaster.Predict itself. The batcher mirrors every answered
// prediction into an optional shadow evaluator (Config.Shadow, a
// *shadow.Evaluator) with one non-blocking send before the reply, and
// /v1/shadow serves its scoreboard.
//
// Hot reload swaps an atomic framework pointer: in-flight batches keep the
// framework they loaded (each Framework owns its own scratch), so a reload
// never drops or corrupts a request. The forecaster is fixed at New. Shutdown
// closes an admission gate, waits for in-flight requests to drain, then stops
// the batcher.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"quanterference/internal/core"
	"quanterference/internal/forecast"
	"quanterference/internal/ml"
	"quanterference/internal/monitor/window"
	"quanterference/internal/obs"
	"quanterference/internal/shadow"
)

// Sentinel errors returned by Server.Predict (and mapped to HTTP statuses by
// the handler: 503, 503, 400 respectively). Match with errors.Is.
var (
	// ErrOverloaded reports that the request queue is full (backpressure);
	// the client should retry with backoff.
	ErrOverloaded = errors.New("serve: server overloaded")

	// ErrShuttingDown reports that the server no longer admits requests.
	ErrShuttingDown = errors.New("serve: server shutting down")

	// ErrBadInput reports a window matrix whose shape does not match the
	// loaded model.
	ErrBadInput = errors.New("serve: bad input matrix")

	// ErrNoForecaster reports a Forecast call on a server started without a
	// forecaster (Config.Forecaster nil).
	ErrNoForecaster = errors.New("serve: no forecaster loaded")

	// ErrNoShadow reports a /v1/shadow request on a server that mirrors no
	// traffic (Config.Shadow nil).
	ErrNoShadow = errors.New("serve: no shadow evaluator attached")

	// ErrTooLarge reports a request body over the 1 MiB limit (HTTP 413).
	ErrTooLarge = errors.New("serve: request body too large")
)

// Config tunes the batching service. The zero value is usable: every field
// defaults to the values quantserve ships with. The batch window is not a
// setting: batches are due a fixed 1 ms apart, the shortest wait Go's
// runtime times in an idle process, which sleeps in whole milliseconds.
type Config struct {
	// MaxBatch caps how many requests one PredictBatch call carries
	// (default 32).
	MaxBatch int
	// MaxInflight bounds the request queue and, separately, the forecasts
	// admitted at once; admissions beyond it fail fast with ErrOverloaded
	// (default 256).
	MaxInflight int
	// ModelPath is the framework file Reload() re-reads. Optional; reloads
	// may also name an explicit path.
	ModelPath string
	// Forecaster optionally serves /v1/forecast alongside /v1/predict: the
	// early-warning sequence head answering "slowdown in k windows?" from the
	// last History window matrices. Nil disables forecasting (requests get
	// ErrNoForecaster). It is fixed for the server's lifetime and, like the
	// framework, ownership transfers to the server.
	Forecaster *forecast.Forecaster
	// Shadow optionally mirrors every answered prediction into a shadow
	// evaluator: the batcher taps Mirror — one non-blocking channel send —
	// right before it answers each request, so challengers are scored on
	// exactly the traffic the champion served while the champion's latency
	// and allocations stay untouched, and /v1/shadow serves its Status. Nil
	// disables mirroring; /v1/shadow then returns ErrNoShadow. Construct the
	// evaluator with this same Sink to surface its counters on /v1/stats.
	Shadow *shadow.Evaluator
	// Sink receives serving metrics (request/error/reload counters, the
	// batch-size histogram, per-stage latency histograms). Nil allocates a
	// private sink so Stats always works.
	Sink *obs.Sink
}

func (c *Config) applyDefaults() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	if c.Sink == nil {
		c.Sink = obs.New()
	}
}

// request is one enqueued prediction; resp is buffered so the batcher never
// blocks on a caller that gave up (context cancellation).
type request struct {
	mat  window.Matrix
	resp chan response
	enq  time.Time
}

type response struct {
	class int
	probs []float64
}

// Server batches concurrent predictions through one framework. Create with
// New, serve HTTP via Handler, stop with Shutdown.
type Server struct {
	cfg Config

	fw    atomic.Pointer[core.Framework]
	queue chan *request

	// fc and fcDigest are the forecaster set at New (nil when forecasting is
	// disabled) and its weight digest.
	fc       *forecast.Forecaster
	fcDigest string

	// fslots admits up to MaxInflight forecasts at once; fmu is a one-slot
	// channel lock around Forecaster.Predict, which reuses scratch. A channel
	// rather than a sync.Mutex so a waiting caller can give up on its ctx.
	fslots chan struct{}
	fmu    chan struct{}

	// fwDigest is the served framework's weight digest (ml.WeightsDigest),
	// recomputed on every swap and stamped on replies and /v1/healthz so
	// clients — and the fleet coordinator — can tell exactly which model
	// version answered. Stored separately from the framework pointer and
	// updated before it, so a reply can briefly carry the digest of the model
	// that is about to serve, never a stale one.
	fwDigest atomic.Pointer[string]

	gateMu   sync.RWMutex
	stopping bool
	inflight sync.WaitGroup
	stopOnce sync.Once
	stop     chan struct{} // closed by Shutdown once admissions drained
	done     chan struct{} // closed when the batcher exits

	mRequests   *obs.Counter
	mForecasts  *obs.Counter
	mErrors     *obs.Counter
	mReloads    *obs.Counter
	mBatches    *obs.Counter
	gQueueDepth *obs.Gauge
	hBatch      *obs.Histogram
	hQueueNS    *obs.Histogram
	hModelNS    *obs.Histogram
	hFWaitNS    *obs.Histogram
	hFModelNS   *obs.Histogram
	hTotalNS    *obs.Histogram

	// Batcher-only state: PredictBatch's input scratch and the start of
	// the current batch window, which is due one window later. window is
	// batchWindow, and onCut is nil; only tests set either, before the
	// batcher starts.
	batchMats   []window.Matrix
	windowStart time.Time
	window      time.Duration
	onCut       func(kind cut, start time.Time)
}

// batchWindow spaces the due times of batches (gather keeps them one window
// apart): an idle server answers a request at once, and requests that arrive
// before the due time share the batch cut then. 1 ms is the shortest wait
// Go's runtime times in an idle process, which sleeps in whole
// milliseconds.
const batchWindow = time.Millisecond

// New starts a serving loop around fw. The framework must not be used
// directly (Predict/PredictBatch) while the server owns it.
func New(fw *core.Framework, cfg Config) *Server {
	s := newServer(fw, cfg)
	go s.batcher()
	return s
}

// newServer builds a server whose batcher is not yet started.
func newServer(fw *core.Framework, cfg Config) *Server {
	if fw == nil {
		panic("serve: nil framework")
	}
	cfg.applyDefaults()
	s := &Server{
		cfg:    cfg,
		fc:     cfg.Forecaster,
		queue:  make(chan *request, cfg.MaxInflight),
		fslots: make(chan struct{}, cfg.MaxInflight),
		fmu:    make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),

		mRequests:   cfg.Sink.Counter("serve", "", "requests"),
		mForecasts:  cfg.Sink.Counter("serve", "", "forecasts"),
		mErrors:     cfg.Sink.Counter("serve", "", "errors"),
		mReloads:    cfg.Sink.Counter("serve", "", "reloads"),
		mBatches:    cfg.Sink.Counter("serve", "", "batches"),
		gQueueDepth: cfg.Sink.Gauge("serve", "", "queue_depth"),
		hBatch:      cfg.Sink.Histogram("serve", "", "batch_size", obs.LinearBuckets(1, 1, cfg.MaxBatch)),
		hQueueNS:    cfg.Sink.Histogram("serve", "", "queue_wait_ns", obs.TimeBuckets()),
		hModelNS:    cfg.Sink.Histogram("serve", "", "model_ns", obs.TimeBuckets()),
		hFWaitNS:    cfg.Sink.Histogram("serve", "", "forecast_wait_ns", obs.TimeBuckets()),
		hFModelNS:   cfg.Sink.Histogram("serve", "", "forecast_model_ns", obs.TimeBuckets()),
		hTotalNS:    cfg.Sink.Histogram("serve", "", "total_ns", obs.TimeBuckets()),

		batchMats: make([]window.Matrix, 0, cfg.MaxBatch),
		window:    batchWindow,
	}
	s.setFramework(fw)
	if s.fc != nil {
		s.fcDigest = ml.WeightsDigest(s.fc.ExportWeights())
	}
	return s
}

// setFramework stamps the digest, then publishes the pointer (digest first,
// so a concurrent reader never pairs a new framework with an old digest).
func (s *Server) setFramework(fw *core.Framework) {
	d := ml.WeightsDigest(fw.ExportWeights())
	s.fwDigest.Store(&d)
	s.fw.Store(fw)
}

// ModelDigest returns the served framework's weight digest — the model
// version identity stamped on every /v1/predict reply and /v1/healthz.
func (s *Server) ModelDigest() string { return *s.fwDigest.Load() }

// Framework returns the currently served framework (hot-reload aware).
func (s *Server) Framework() *core.Framework { return s.fw.Load() }

// Stats snapshots the serving metrics.
func (s *Server) Stats() *obs.Snapshot { return s.cfg.Sink.Snapshot() }

// Predict classifies one raw window matrix, transparently batched with
// whatever other requests are in flight. On an idle server (the current
// batch window already due) it is answered at once; otherwise it joins the
// batch cut at the window's due time, or sooner if that batch fills. The
// returned probs slice is the caller's to keep. Safe for any number of
// concurrent callers.
func (s *Server) Predict(ctx context.Context, mat window.Matrix) (class int, probs []float64, err error) {
	start := time.Now()
	s.mRequests.Inc()
	if err := validate(s.fw.Load(), mat); err != nil {
		s.mErrors.Inc()
		return 0, nil, err
	}

	// Admission gate: taken read-side so Shutdown can atomically flip
	// stopping and then wait out everyone already admitted.
	s.gateMu.RLock()
	if s.stopping {
		s.gateMu.RUnlock()
		s.mErrors.Inc()
		return 0, nil, ErrShuttingDown
	}
	s.inflight.Add(1)
	s.gateMu.RUnlock()
	defer s.inflight.Done()

	req := &request{mat: mat, resp: make(chan response, 1), enq: start}
	select {
	case s.queue <- req:
		s.gQueueDepth.Set(float64(len(s.queue)))
	default:
		s.mErrors.Inc()
		return 0, nil, fmt.Errorf("%w: queue full (%d)", ErrOverloaded, s.cfg.MaxInflight)
	}
	select {
	case r := <-req.resp:
		if !finite(r.probs) {
			s.mErrors.Inc()
			return 0, nil, errNonFinite
		}
		s.hTotalNS.Observe(float64(time.Since(start)))
		return r.class, r.probs, nil
	case <-ctx.Done():
		// The batcher will still answer into the buffered channel; we just
		// stop waiting.
		s.mErrors.Inc()
		return 0, nil, ctx.Err()
	}
}

// Forecast predicts slowdown ahead of time from the last History raw window
// matrices (oldest first). There is no batched forecast entry point, so the
// caller runs Forecaster.Predict itself under a one-slot lock; a caller whose
// ctx ends while it waits for the lock returns ctx.Err(). The returned
// Prediction is the caller's to keep. Safe for any number of concurrent
// callers; returns ErrNoForecaster when the server has no forecaster loaded.
func (s *Server) Forecast(ctx context.Context, history []window.Matrix) (*forecast.Prediction, error) {
	start := time.Now()
	s.mForecasts.Inc()
	if s.fc == nil {
		s.mErrors.Inc()
		return nil, ErrNoForecaster
	}
	if err := validateHistory(s.fc, history); err != nil {
		s.mErrors.Inc()
		return nil, err
	}

	s.gateMu.RLock()
	if s.stopping {
		s.gateMu.RUnlock()
		s.mErrors.Inc()
		return nil, ErrShuttingDown
	}
	s.inflight.Add(1)
	s.gateMu.RUnlock()
	defer s.inflight.Done()

	select {
	case s.fslots <- struct{}{}:
		defer func() { <-s.fslots }()
	default:
		s.mErrors.Inc()
		return nil, fmt.Errorf("%w: %d forecasts in flight", ErrOverloaded, s.cfg.MaxInflight)
	}
	select {
	case s.fmu <- struct{}{}:
	case <-ctx.Done():
		s.mErrors.Inc()
		return nil, ctx.Err()
	}
	s.hFWaitNS.Observe(float64(time.Since(start)))
	mstart := time.Now()
	pred, err := s.fc.Predict(history)
	<-s.fmu
	s.hFModelNS.Observe(float64(time.Since(mstart)))
	if err == nil && !finite(pred.Probs...) {
		err = errNonFinite
	}
	if err != nil {
		s.mErrors.Inc()
		return nil, err
	}
	s.hTotalNS.Observe(float64(time.Since(start)))
	return pred, nil
}

// Reload atomically swaps in the framework at path (Config.ModelPath when
// empty) without disturbing in-flight requests: batches already cut keep the
// framework pointer they loaded. Invalid files leave the old framework
// serving.
func (s *Server) Reload(path string) error {
	if path == "" {
		path = s.cfg.ModelPath
	}
	if path == "" {
		return errors.New("serve: no model path to reload from")
	}
	fw, err := core.LoadFramework(path)
	if err != nil {
		return fmt.Errorf("serve: reload %s: %w", path, err)
	}
	return s.ReloadFramework(fw)
}

// ReloadFramework atomically swaps in an in-memory framework — the
// programmatic sibling of Reload's file-based path (SIGHUP, POST
// /admin/reload), used by the continuous-learning loop (internal/online) to
// promote a gated candidate without a disk round-trip. Like Reload, the swap
// never disturbs in-flight requests: batches already cut keep the framework
// pointer they loaded, and each Framework owns its own scratch.
//
// Ownership of fw transfers to the server; the caller must not call its
// Predict/PredictBatch afterwards (clone first if it needs an evaluation
// copy). A framework whose input shape differs from the currently served one
// is rejected, so a bad candidate can never strand the batcher mid-stream.
func (s *Server) ReloadFramework(fw *core.Framework) error {
	if fw == nil {
		return errors.New("serve: reload of nil framework")
	}
	oldT, oldF := s.fw.Load().Dims()
	newT, newF := fw.Dims()
	if oldT != newT || oldF != newF {
		return fmt.Errorf("serve: reload shape %dx%d does not match served %dx%d",
			newT, newF, oldT, oldF)
	}
	s.setFramework(fw)
	s.mReloads.Inc()
	return nil
}

// Shutdown gracefully stops the server: new requests are refused with
// ErrShuttingDown, every admitted request (prediction or forecast) is
// answered, then the batcher exits. Returns ctx.Err() if the context expires
// first (the batcher is left running so stragglers still get answers).
// Idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.gateMu.Lock()
	s.stopping = true
	s.gateMu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.stopOnce.Do(func() { close(s.stop) })
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// errNonFinite answers an input so extreme, though finite, that the model's
// output overflowed to NaN or Inf, which JSON cannot carry.
var errNonFinite = fmt.Errorf("%w: model output is not finite", ErrBadInput)

func finite(rows ...[]float64) bool {
	for _, row := range rows {
		for _, x := range row {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return false
			}
		}
	}
	return true
}

// validate checks mat against the loaded model's expected shape.
func validate(fw *core.Framework, mat window.Matrix) error {
	nTargets, nFeat := fw.Dims()
	if len(mat) == 0 {
		return fmt.Errorf("%w: empty matrix", ErrBadInput)
	}
	if nTargets > 0 && len(mat) != nTargets {
		return fmt.Errorf("%w: %d rows, model expects %d targets", ErrBadInput, len(mat), nTargets)
	}
	for t, row := range mat {
		if len(row) != nFeat {
			return fmt.Errorf("%w: row %d has %d features, model expects %d",
				ErrBadInput, t, len(row), nFeat)
		}
	}
	return nil
}

// validateHistory checks a forecast history against the loaded forecaster's
// expected shape: History windows, each a non-empty matrix of nFeat-wide
// rows (any row count — pooling collapses targets).
func validateHistory(fc *forecast.Forecaster, history []window.Matrix) error {
	hLen, nFeat := fc.Dims()
	if len(history) != hLen {
		return fmt.Errorf("%w: %d windows, forecaster expects %d", ErrBadInput, len(history), hLen)
	}
	for i, mat := range history {
		if len(mat) == 0 {
			return fmt.Errorf("%w: window %d is empty", ErrBadInput, i)
		}
		for t, row := range mat {
			if len(row) != nFeat {
				return fmt.Errorf("%w: window %d row %d has %d features, forecaster expects %d",
					ErrBadInput, i, t, len(row), nFeat)
			}
		}
	}
	return nil
}
