package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"quanterference/internal/core"
	"quanterference/internal/dataset"
	"quanterference/internal/label"
	"quanterference/internal/ml"
	"quanterference/internal/monitor/window"
	"quanterference/internal/nn"
	"quanterference/internal/sim"
)

// trainedFramework builds a small framework on synthetic data (no simulator
// run) plus a set of distinct query matrices.
func trainedFramework(tb testing.TB, nTargets, nFeat int) (*core.Framework, []window.Matrix) {
	tb.Helper()
	names := make([]string, nFeat)
	for i := range names {
		names[i] = "f"
	}
	ds := dataset.New(names, nTargets, 2)
	rng := sim.NewRNG(21)
	for i := 0; i < 64; i++ {
		vecs := make([][]float64, nTargets)
		for t := range vecs {
			v := make([]float64, nFeat)
			for f := range v {
				v[f] = rng.NormFloat64() + float64(i%2)
			}
			vecs[t] = v
		}
		ds.Add(&dataset.Sample{Label: i % 2, Degradation: 1, Vectors: vecs})
	}
	fw, _, err := core.TrainFrameworkE(ds, core.FrameworkConfig{Seed: 4, Train: ml.TrainConfig{Epochs: 5}})
	if err != nil {
		tb.Fatal(err)
	}
	rng2 := sim.NewRNG(22)
	mats := make([]window.Matrix, 8)
	for i := range mats {
		mat := make(window.Matrix, nTargets)
		for t := range mat {
			v := make([]float64, nFeat)
			for f := range v {
				v[f] = rng2.NormFloat64() * 2
			}
			mat[t] = v
		}
		mats[i] = mat
	}
	return fw, mats
}

// TestHTTPRoundTripWithReload drives the full HTTP surface: healthz shape,
// predict, hot reload from disk, predict again (identical answer), stats.
func TestHTTPRoundTripWithReload(t *testing.T) {
	fw, mats := trainedFramework(t, 3, 5)
	path := t.TempDir() + "/fw.json"
	if err := fw.Save(path); err != nil {
		t.Fatal(err)
	}
	wantClass, wantProbs := fw.Predict(mats[0])

	s := New(fw, Config{ModelPath: path})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL + "/") // trailing slash tolerated
	ctx := context.Background()

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Targets != 3 || h.Features != 5 || h.Classes != 2 || len(h.Thresholds) != 1 {
		t.Fatalf("health = %+v", h)
	}

	check := func(stage string) {
		resp, err := c.Predict(ctx, mats[0])
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if resp.Class != wantClass {
			t.Fatalf("%s: class %d, want %d", stage, resp.Class, wantClass)
		}
		for i := range wantProbs {
			if math.Float64bits(resp.Probs[i]) != math.Float64bits(wantProbs[i]) {
				t.Fatalf("%s: probs %v, want %v", stage, resp.Probs, wantProbs)
			}
		}
		if resp.Label == "" {
			t.Fatalf("%s: empty label", stage)
		}
	}
	check("before reload")
	if err := c.Reload(ctx, ""); err != nil { // empty path = configured ModelPath
		t.Fatal(err)
	}
	check("after reload")

	// A bad reload must leave the old framework serving.
	if err := c.Reload(ctx, "/nonexistent/fw.json"); err == nil {
		t.Fatal("reload of missing file succeeded")
	}
	check("after failed reload")

	// Reload bodies pass through the same capped decoder as predict: a body
	// the server cannot read is refused without reloading anything, and an
	// empty one reloads the configured path.
	for _, tc := range []struct {
		name, body, code string
		status           int
	}{
		{"wrong type", `{"path": 5}`, codeBadInput, http.StatusBadRequest},
		{"not json", "not json", codeBadInput, http.StatusBadRequest},
		{"oversized", `{"path":"` + strings.Repeat("a", maxBodyBytes) + `"}`, codeTooLarge, http.StatusRequestEntityTooLarge},
		{"empty", "", "", http.StatusOK},
	} {
		before, _ := s.Stats().Counter("serve", "", "reloads")
		resp, err := http.Post(ts.URL+v1("/admin/reload"), "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var body errorResponse
		json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != tc.status || body.Code != tc.code {
			t.Fatalf("reload body %s: status %d code %q, want %d %q", tc.name, resp.StatusCode, body.Code, tc.status, tc.code)
		}
		after, _ := s.Stats().Counter("serve", "", "reloads")
		if reloaded := after > before; reloaded != (tc.status == http.StatusOK) {
			t.Fatalf("reload body %s: reloaded = %v with status %d", tc.name, reloaded, resp.StatusCode)
		}
	}
	check("after reload bodies")

	// Bad input shapes are 400s, not panics.
	if _, err := c.Predict(ctx, window.Matrix{{1, 2}}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("bad shape error = %v", err)
	}
	if _, err := c.Predict(ctx, nil); err == nil {
		t.Fatal("empty matrix accepted")
	}

	// Stats reflect the traffic and render as JSON.
	snap := s.Stats()
	if v, ok := snap.Counter("serve", "", "requests"); !ok || v < 5 {
		t.Fatalf("requests counter = %d, %v", v, ok)
	}
	if v, ok := snap.Counter("serve", "", "reloads"); !ok || v != 2 {
		t.Fatalf("reloads counter = %d, %v", v, ok)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "serve/batch_size") {
		t.Fatalf("/v1/stats = %d %s", rec.Code, rec.Body.String())
	}
}

// TestConcurrentClientsDeterministic is the batching correctness pin: 32
// clients hammering distinct inputs, with hot reloads interleaved, must each
// always get the exact answer a lone Predict gives, no matter how requests
// get grouped into batches. Run under -race in make verify.
func TestConcurrentClientsDeterministic(t *testing.T) {
	fw, mats := trainedFramework(t, 3, 5)
	path := t.TempDir() + "/fw.json"
	if err := fw.Save(path); err != nil {
		t.Fatal(err)
	}
	wantCls := make([]int, len(mats))
	wantProbs := make([][]float64, len(mats))
	for i, mat := range mats {
		wantCls[i], wantProbs[i] = fw.Predict(mat)
	}

	s := New(fw, Config{
		MaxBatch:    8,
		MaxInflight: 1024,
		ModelPath:   path,
	})
	defer s.Shutdown(context.Background())

	const clients, iters = 32, 40
	ctx := context.Background()
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (c + it) % len(mats)
				class, probs, err := s.Predict(ctx, mats[i])
				if err != nil {
					errCh <- err
					return
				}
				if class != wantCls[i] {
					errCh <- errors.New("class diverged under concurrency")
					return
				}
				for j := range probs {
					if math.Float64bits(probs[j]) != math.Float64bits(wantProbs[i][j]) {
						errCh <- errors.New("probs diverged under concurrency")
						return
					}
				}
			}
		}(c)
	}
	// Hot reloads racing the clients: in-flight requests must neither error
	// nor change answers (the reloaded file holds identical weights).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := s.Reload(""); err != nil {
				errCh <- err
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}

	snap := s.Stats()
	if v, _ := snap.Counter("serve", "", "requests"); v != clients*iters {
		t.Fatalf("requests = %d, want %d", v, clients*iters)
	}
	if v, _ := snap.Counter("serve", "", "errors"); v != 0 {
		t.Fatalf("errors = %d, want 0", v)
	}
	batches, _ := snap.Counter("serve", "", "batches")
	if batches == 0 || batches >= clients*iters {
		t.Fatalf("batches = %d: no batching happened", batches)
	}
	t.Logf("%d requests served in %d batches", clients*iters, batches)
}

// TestGracefulShutdownUnderLoad: every request admitted before Shutdown gets
// a real answer; requests after are refused with ErrShuttingDown; Shutdown
// returns only when the batcher has drained.
func TestGracefulShutdownUnderLoad(t *testing.T) {
	fw, mats := trainedFramework(t, 3, 5)
	s := New(fw, Config{MaxBatch: 4, MaxInflight: 1024})

	const clients = 16
	ctx := context.Background()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		answered int
		refused  int
	)
	start := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for it := 0; ; it++ {
				_, probs, err := s.Predict(ctx, mats[(c+it)%len(mats)])
				mu.Lock()
				switch {
				case err == nil && len(probs) == 2:
					answered++
				case errors.Is(err, ErrShuttingDown):
					refused++
					mu.Unlock()
					return
				default:
					mu.Unlock()
					t.Errorf("unexpected result: %v %v", probs, err)
					return
				}
				mu.Unlock()
			}
		}(c)
	}
	close(start)
	time.Sleep(5 * time.Millisecond) // let load build
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	if refused != clients {
		t.Fatalf("refused = %d, want %d (each client exits on ErrShuttingDown)", refused, clients)
	}
	if answered == 0 {
		t.Fatal("no requests answered before shutdown")
	}
	t.Logf("answered %d, then refused %d", answered, refused)

	// Idempotent, and still refusing.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	if _, _, err := s.Predict(ctx, mats[0]); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-shutdown Predict err = %v", err)
	}
}

// slowModel stalls every ProbsInto call.
type slowModel struct {
	delay time.Duration
}

func (m slowModel) ProbsInto(dst []float64, vectors [][]float64) []float64 {
	time.Sleep(m.delay)
	return append(dst[:0], 0.75, 0.25)
}
func (m slowModel) LossAndGrad(vectors [][]float64, label int, weight float64) float64 { return 0 }
func (m slowModel) Params() []nn.Param                                                 { return nil }

// TestBackpressure: with the batcher unable to keep up (slow model, tiny
// queue), excess admissions fail fast with ErrOverloaded instead of queueing
// unboundedly.
func TestBackpressure(t *testing.T) {
	_, mats := trainedFramework(t, 3, 5)
	fw := &core.Framework{
		Bins:   label.BinaryBins(),
		Model:  slowModel{delay: 2 * time.Millisecond},
		Scaler: &dataset.Scaler{Mean: make([]float64, 5), Std: []float64{1, 1, 1, 1, 1}},
	}
	s := New(fw, Config{MaxBatch: 2, MaxInflight: 2})
	defer s.Shutdown(context.Background())

	ctx := context.Background()
	var wg sync.WaitGroup
	results := make(chan error, 32)
	for c := 0; c < 32; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, _, err := s.Predict(ctx, mats[c%len(mats)])
			results <- err
		}(c)
	}
	wg.Wait()
	close(results)
	var overloaded int
	for err := range results {
		if errors.Is(err, ErrOverloaded) {
			overloaded++
		} else if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if overloaded == 0 {
		t.Fatal("no request hit backpressure despite a 2-deep queue")
	}
	t.Logf("%d/32 requests shed", overloaded)
}
