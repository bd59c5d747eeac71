package core

import (
	"context"
	"path/filepath"
	"testing"

	"quanterference/internal/forecast"
	"quanterference/internal/ml"
)

// noGradients fails the test if any parameter of m holds a gradient buffer.
func noGradients(t *testing.T, what string, m ml.Model) {
	t.Helper()
	for i, p := range m.Params() {
		if p.G != nil {
			t.Fatalf("%s: parameter %d holds a gradient buffer", what, i)
		}
	}
}

// TestDeployedModelsHoldNoGradients: every model the serving plane holds —
// trained, warm-start retrained, cloned or loaded, framework or forecaster
// head — keeps weights and inference scratch only.
func TestDeployedModelsHoldNoGradients(t *testing.T) {
	dir := t.TempDir()
	fw, _, err := TrainFrameworkE(warmDataset(40, 3, 5, 2, 3), FrameworkConfig{
		Seed: 2, Train: ml.TrainConfig{Epochs: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	noGradients(t, "trained framework", fw.Model)
	clone, err := fw.Clone()
	if err != nil {
		t.Fatal(err)
	}
	noGradients(t, "Framework.Clone", clone.Model)
	warm, _, err := TrainFrameworkE(warmDataset(40, 3, 5, 3, 3), FrameworkConfig{
		Train: ml.TrainConfig{Epochs: 2},
	}, WithWarmStart(clone))
	if err != nil {
		t.Fatal(err)
	}
	noGradients(t, "warm-started framework", warm.Model)
	fwPath := filepath.Join(dir, "fw.json")
	if err := fw.Save(fwPath); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFramework(fwPath)
	if err != nil {
		t.Fatal(err)
	}
	noGradients(t, "LoadFramework", loaded.Model)

	fc, _, err := TrainForecasterCtx(context.Background(), forecastDS(3, 12), smallForecastCfg())
	if err != nil {
		t.Fatal(err)
	}
	fcClone, err := fc.Clone()
	if err != nil {
		t.Fatal(err)
	}
	fcPath := filepath.Join(dir, "fc.json")
	if err := fc.Save(fcPath); err != nil {
		t.Fatal(err)
	}
	fcLoaded, err := forecast.Load(fcPath)
	if err != nil {
		t.Fatal(err)
	}
	for what, f := range map[string]*forecast.Forecaster{
		"trained forecaster": fc, "Forecaster.Clone": fcClone, "forecast.Load": fcLoaded,
	} {
		for _, h := range f.Heads {
			noGradients(t, what, h.Model)
		}
	}
}
