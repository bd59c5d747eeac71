package core

import (
	"context"
	"errors"
	"testing"

	"quanterference/internal/dataset"
	"quanterference/internal/forecast"
	"quanterference/internal/label"
	"quanterference/internal/ml"
	"quanterference/internal/sim"
)

// forecastDS synthesizes the window-labeled dataset shape CollectDatasetCtx
// produces: runs of consecutive windows where degradation drifts upward late
// in each run, so lead labels are learnable and both classes appear at every
// tested horizon.
func forecastDS(runs, windows int) *dataset.Dataset {
	d := dataset.New([]string{"f0", "f1", "f2"}, 2, 2)
	d.Profile = "paper"
	rng := sim.NewRNG(99)
	for r := 0; r < runs; r++ {
		for w := 0; w < windows; w++ {
			// Degraded in the back third of each run; features correlate.
			lbl, deg, lift := 0, 1.2, 0.0
			if w >= windows*2/3 {
				lbl, deg, lift = 1, 3.5, 4.0
			}
			vecs := make([][]float64, 2)
			for t := range vecs {
				vecs[t] = []float64{
					lift + rng.Float64(),
					float64(w)/float64(windows) + rng.Float64()*0.1,
					rng.Float64()*2 - 1,
				}
			}
			d.Add(&dataset.Sample{
				Workload: "ior", Run: string(rune('a' + r)), Window: w,
				Degradation: deg, Label: lbl, Vectors: vecs,
			})
		}
	}
	return d
}

func smallForecastCfg() ForecasterConfig {
	return ForecasterConfig{
		Forecast: forecast.Config{History: 3, Horizons: []int{1, 2}},
		Train:    ml.TrainConfig{Epochs: 8},
		Seed:     7,
	}
}

func TestTrainForecasterShapeAndAccuracy(t *testing.T) {
	ds := forecastDS(4, 12)
	f, cms, err := TrainForecasterCtx(context.Background(), ds, smallForecastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Horizons(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("horizons %v", got)
	}
	if h, nf := f.Dims(); h != 3 || nf != 3 {
		t.Fatalf("dims %d,%d", h, nf)
	}
	if len(cms) != 2 {
		t.Fatalf("%d confusions", len(cms))
	}
	for i, cm := range cms {
		if cm == nil || cm.Total() == 0 {
			t.Fatalf("horizon %d: empty confusion", i)
		}
	}
}

// TestTrainForecasterKeepsCallerHorizons: training normalizes the horizon
// set on its own copy, so the caller's Horizons slice reads as it was.
func TestTrainForecasterKeepsCallerHorizons(t *testing.T) {
	cfg := smallForecastCfg()
	cfg.Forecast.Horizons = []int{2, 1, 1}
	f, _, err := TrainForecasterCtx(context.Background(), forecastDS(4, 12), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Horizons(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("horizons %v, want [1 2]", got)
	}
	if h := cfg.Forecast.Horizons; h[0] != 2 || h[1] != 1 || h[2] != 1 {
		t.Fatalf("caller's horizons rewritten to %v, want [2 1 1]", h)
	}
}

func TestTrainForecasterDeterministic(t *testing.T) {
	ds := forecastDS(3, 12)
	f1, _, err := TrainForecasterCtx(context.Background(), ds, smallForecastCfg())
	if err != nil {
		t.Fatal(err)
	}
	f2, _, err := TrainForecasterCtx(context.Background(), ds, smallForecastCfg())
	if err != nil {
		t.Fatal(err)
	}
	w1, w2 := f1.ExportWeights(), f2.ExportWeights()
	if len(w1) == 0 || len(w1) != len(w2) {
		t.Fatalf("weight tensor counts %d vs %d", len(w1), len(w2))
	}
	for i := range w1 {
		for j := range w1[i] {
			if w1[i][j] != w2[i][j] {
				t.Fatal("same seed, different forecaster weights")
			}
		}
	}
}

func TestTrainForecasterValidation(t *testing.T) {
	if _, _, err := TrainForecasterCtx(context.Background(), nil, smallForecastCfg()); !errors.Is(err, ErrEmptyDataset) {
		t.Fatalf("nil dataset: %v", err)
	}

	// A horizon no run can reach: 12-window runs cannot label lead 50.
	cfg := smallForecastCfg()
	cfg.Forecast.Horizons = []int{50}
	if _, _, err := TrainForecasterCtx(context.Background(), forecastDS(2, 12), cfg); !errors.Is(err, ErrForecastHorizon) {
		t.Fatalf("unreachable horizon: %v", err)
	}

	cfg = smallForecastCfg()
	cfg.Forecast.History = -1
	if _, _, err := TrainForecasterCtx(context.Background(), forecastDS(2, 12), cfg); !errors.Is(err, forecast.ErrBadConfig) {
		t.Fatalf("bad history: %v", err)
	}
}

func TestTrainForecasterCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := TrainForecasterCtx(ctx, forecastDS(3, 12), smallForecastCfg())
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled ctx: %v", err)
	}
}

// TestTrainForecasterRejectsBinsMismatch is TestTrainFrameworkRejectsBinsMismatch
// for the forecast heads, which read the same stored labels.
func TestTrainForecasterRejectsBinsMismatch(t *testing.T) {
	ds := threeClassDS()
	cfg := smallForecastCfg()
	if _, _, err := TrainForecasterCtx(context.Background(), ds, cfg); !errors.Is(err, ErrBinsMismatch) {
		t.Fatalf("binary bins over 3 classes: err = %v, want ErrBinsMismatch", err)
	}
	cfg.Bins = label.SeverityBins()
	if _, _, err := TrainForecasterCtx(context.Background(), ds, cfg); err != nil {
		t.Fatalf("severity bins over 3 classes: %v", err)
	}
}
