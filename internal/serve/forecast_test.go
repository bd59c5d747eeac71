package serve

import (
	"context"
	"errors"
	"math"
	"net/http/httptest"
	"sync"
	"testing"

	"quanterference/internal/dataset"
	"quanterference/internal/forecast"
	"quanterference/internal/label"
	"quanterference/internal/ml"
	"quanterference/internal/monitor/window"
	"quanterference/internal/sim"
)

// testForecaster builds a small forecaster directly (identity scalers,
// seeded untrained kernel heads) — prediction determinism is all the serving
// tests need, not accuracy.
func testForecaster(history, nFeat int, horizons []int) *forecast.Forecaster {
	f := &forecast.Forecaster{History: history, Threshold: 1, Bins: label.BinaryBins()}
	for _, k := range horizons {
		scaler := &dataset.Scaler{Mean: make([]float64, 2*nFeat), Std: make([]float64, 2*nFeat)}
		for j := range scaler.Std {
			scaler.Std[j] = 1
		}
		f.Heads = append(f.Heads, &forecast.Head{
			Horizon: k,
			Model: ml.NewKernelModel(ml.KernelConfig{
				NTargets: history, NFeat: 2 * nFeat, Classes: 2, Seed: 31 + int64(k),
			}),
			Scaler: scaler,
		})
	}
	return f
}

// testHistories builds n distinct forecast inputs: history windows of
// [targets x nFeat] matrices.
func testHistories(n, history, targets, nFeat int) [][]window.Matrix {
	rng := sim.NewRNG(17)
	out := make([][]window.Matrix, n)
	for i := range out {
		hist := make([]window.Matrix, history)
		for w := range hist {
			mat := make(window.Matrix, targets)
			for t := range mat {
				row := make([]float64, nFeat)
				for f := range row {
					row[f] = rng.NormFloat64()
				}
				mat[t] = row
			}
			hist[w] = mat
		}
		out[i] = hist
	}
	return out
}

// TestForecastHTTPRoundTrip drives /v1/forecast end to end: health advertises
// the forecaster shape, forecasts match a direct Forecaster.Predict
// bit-for-bit, and shape errors map to 400s.
func TestForecastHTTPRoundTrip(t *testing.T) {
	fw, _ := trainedFramework(t, 3, 5)
	fc := testForecaster(4, 5, []int{1, 2, 4})
	hists := testHistories(3, 4, 3, 5)
	want, err := fc.Predict(hists[0])
	if err != nil {
		t.Fatal(err)
	}

	s := New(fw, Config{Forecaster: fc})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.ForecastHistory != 4 || len(h.ForecastHorizons) != 3 || h.ForecastHorizons[2] != 4 {
		t.Fatalf("health forecast shape = %+v", h)
	}

	resp, err := c.Forecast(ctx, hists[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Horizons) != 3 || len(resp.Labels) != 3 {
		t.Fatalf("forecast response %+v", resp)
	}
	for i := range want.Probs {
		if resp.Classes[i] != want.Classes[i] {
			t.Fatalf("horizon %d class %d, want %d", resp.Horizons[i], resp.Classes[i], want.Classes[i])
		}
		for j := range want.Probs[i] {
			if math.Float64bits(resp.Probs[i][j]) != math.Float64bits(want.Probs[i][j]) {
				t.Fatal("served probs differ from direct Predict")
			}
		}
	}
	if resp.LeadWindows != want.LeadWindows || resp.Degrading != want.Degrading() {
		t.Fatalf("lead %d/%v, want %d/%v", resp.LeadWindows, resp.Degrading, want.LeadWindows, want.Degrading())
	}

	// Wrong history length and wrong row width are 400s.
	if _, err := c.Forecast(ctx, hists[0][:2]); !errors.Is(err, ErrBadInput) {
		t.Fatalf("short history: %v", err)
	}
	bad := testHistories(1, 4, 3, 7)[0]
	if _, err := c.Forecast(ctx, bad); !errors.Is(err, ErrBadInput) {
		t.Fatalf("wide rows: %v", err)
	}
}

// TestForecastWithoutForecaster pins the disabled path: ErrNoForecaster
// locally, 404 with a typed code over HTTP, and no forecaster advertised in
// health.
func TestForecastWithoutForecaster(t *testing.T) {
	fw, _ := trainedFramework(t, 3, 5)
	s := New(fw, Config{})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx := context.Background()

	if _, err := s.Forecast(ctx, testHistories(1, 4, 3, 5)[0]); !errors.Is(err, ErrNoForecaster) {
		t.Fatalf("local: %v", err)
	}
	c := NewClient(ts.URL)
	if _, err := c.Forecast(ctx, testHistories(1, 4, 3, 5)[0]); !errors.Is(err, ErrNoForecaster) {
		t.Fatalf("http: %v", err)
	}
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.ForecastHistory != 0 || h.ForecastHorizons != nil {
		t.Fatalf("health advertises a forecaster: %+v", h)
	}
}

// TestForecastConcurrentDeterministic is the forecast twin of the batching
// correctness pin: concurrent forecasts (serialized by the model lock) and
// predictions (through the batcher) interleave on one server, and every
// forecast matches the lone-call answer bit-for-bit. The forecast and
// predict histograms stay separate. Run under -race in make verify.
func TestForecastConcurrentDeterministic(t *testing.T) {
	fw, mats := trainedFramework(t, 3, 5)
	fc := testForecaster(4, 5, []int{1, 2})
	hists := testHistories(8, 4, 3, 5)
	want := make([]*forecast.Prediction, len(hists))
	for i, h := range hists {
		p, err := fc.Predict(h)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p
	}

	s := New(fw, Config{
		Forecaster:  fc,
		MaxBatch:    8,
		MaxInflight: 1024,
	})
	defer s.Shutdown(context.Background())

	const clients, iters = 16, 25
	ctx := context.Background()
	var wg sync.WaitGroup
	errCh := make(chan error, 2*clients)
	for c := 0; c < clients; c++ {
		wg.Add(2)
		go func(c int) { // forecast load
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (c + it) % len(hists)
				p, err := s.Forecast(ctx, hists[i])
				if err != nil {
					errCh <- err
					return
				}
				for hi := range want[i].Probs {
					for j := range want[i].Probs[hi] {
						if math.Float64bits(p.Probs[hi][j]) != math.Float64bits(want[i].Probs[hi][j]) {
							errCh <- errors.New("forecast diverged under concurrency")
							return
						}
					}
				}
			}
		}(c)
		go func(c int) { // prediction load on the same server
			defer wg.Done()
			for it := 0; it < iters; it++ {
				if _, _, err := s.Predict(ctx, mats[(c+it)%len(mats)]); err != nil {
					errCh <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}

	snap := s.Stats()
	if v, _ := snap.Counter("serve", "", "forecasts"); v != clients*iters {
		t.Fatalf("forecasts = %d, want %d", v, clients*iters)
	}
	if hv := histogram(t, snap, "forecast_model_ns"); hv.Count != clients*iters {
		t.Fatalf("forecast_model_ns count = %d, want %d", hv.Count, clients*iters)
	}
	if hv := histogram(t, snap, "batch_size"); hv.Sum != clients*iters {
		t.Fatalf("batch_size sum = %g, want %d predictions only", hv.Sum, clients*iters)
	}
}
