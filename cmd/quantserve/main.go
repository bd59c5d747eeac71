// Command quantserve exposes a framework trained by `quanttrain -save` as a
// concurrent HTTP inference service — the deployment shape of the paper's
// Figure 2 runtime path. Concurrent /v1/predict requests are transparently
// batched through one deterministic PredictBatch call; answers are
// bit-identical to standalone prediction regardless of batch composition.
// A fixed 1 ms window spaces batches apart: an idle server answers a
// request at once, and requests arriving while a window is open share the
// batch cut when it is due. Each cut starts the next window, due 1 ms
// later; a cut made less than a window after its due time starts it at
// that due time, so lateness never stretches the spacing. 1 ms is the
// shortest wait Go's runtime times in an idle process, which sleeps in
// whole milliseconds.
//
// Usage:
//
//	quantserve -model fw.json -addr :8080
//	curl -s localhost:8080/v1/predict -d '{"matrix": [[...], ...]}'
//
// SIGHUP (or POST /v1/admin/reload) hot-swaps the model file without dropping
// in-flight requests; SIGINT/SIGTERM drain gracefully. -smoke trains a tiny
// synthetic model in-process and serves it — used by `make serve-smoke`.
//
// -forecast additionally serves a forecaster file (forecast.Save) on
// /v1/forecast: POST a history of window matrices, get the predicted slowdown
// class per horizon plus the lead to degradation. The forecaster loads once
// at startup; reloads swap only the framework. -smoke trains a tiny
// forecaster too, so the smoke server answers both endpoints.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"quanterference/internal/core"
	"quanterference/internal/dataset"
	"quanterference/internal/forecast"
	"quanterference/internal/ml"
	"quanterference/internal/serve"
	"quanterference/internal/sim"
)

var (
	model       = flag.String("model", "framework.json", "framework file from quanttrain -save")
	forecastF   = flag.String("forecast", "", "optional forecaster file; enables /v1/forecast")
	addr        = flag.String("addr", ":8080", "listen address")
	maxBatch    = flag.Int("max-batch", 32, "max predictions per batch")
	maxInflight = flag.Int("max-inflight", 256, "queue bound before requests are shed with 503")
	smoke       = flag.Bool("smoke", false, "serve a tiny synthetic model (ignores -model; for smoke tests)")
)

func main() {
	flag.Parse()

	var (
		fw  *core.Framework
		fc  *forecast.Forecaster
		err error
	)
	if *smoke {
		if fw, err = smokeFramework(); err == nil {
			fc, err = smokeForecaster()
		}
	} else {
		fw, err = core.LoadFramework(*model)
		if err == nil && *forecastF != "" {
			fc, err = forecast.Load(*forecastF)
		}
	}
	if err != nil {
		fatal(err)
	}

	s := serve.New(fw, serve.Config{
		MaxBatch:    *maxBatch,
		MaxInflight: *maxInflight,
		ModelPath:   *model,
		Forecaster:  fc,
	})
	hs := &http.Server{Addr: *addr, Handler: s.Handler()}

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if err := s.Reload(""); err != nil {
				fmt.Fprintln(os.Stderr, "quantserve: reload:", err)
				continue
			}
			fmt.Fprintln(os.Stderr, "quantserve: reloaded", *model)
		}
	}()

	term := make(chan os.Signal, 1)
	signal.Notify(term, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-term
		fmt.Fprintln(os.Stderr, "quantserve: draining...")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		// Stop accepting connections first, then drain the batcher.
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "quantserve: http shutdown:", err)
		}
		if err := s.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "quantserve: batcher shutdown:", err)
		}
	}()

	nT, nF := fw.Dims()
	fmt.Fprintf(os.Stderr, "quantserve: serving %d-target x %d-feature model (%d classes) on %s\n",
		nT, nF, fw.Classes(), *addr)
	if fc != nil {
		fmt.Fprintf(os.Stderr, "quantserve: forecasting over %d-window history at horizons %v\n",
			fc.History, fc.Horizons())
	}
	if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
}

// smokeFramework trains a minimal synthetic framework so the serving path
// can be exercised end to end without a model file or a simulator run.
func smokeFramework() (*core.Framework, error) {
	const nTargets, nFeat = 3, 5
	names := make([]string, nFeat)
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i)
	}
	ds := dataset.New(names, nTargets, 2)
	rng := sim.NewRNG(1)
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
	fw, _, err := core.TrainFrameworkE(ds, core.FrameworkConfig{Seed: 1, Train: ml.TrainConfig{Epochs: 5}})
	return fw, err
}

// smokeForecaster trains a minimal forecaster over the same 3x5 window shape
// as smokeFramework: a few synthetic runs of consecutive windows whose
// features drift upward until the back third degrades.
func smokeForecaster() (*forecast.Forecaster, error) {
	const nTargets, nFeat, runs, windows = 3, 5, 4, 16
	names := make([]string, nFeat)
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i)
	}
	ds := dataset.New(names, nTargets, 2)
	rng := sim.NewRNG(2)
	for r := 0; r < runs; r++ {
		for w := 0; w < windows; w++ {
			degraded := w >= 2*windows/3
			vecs := make([][]float64, nTargets)
			for t := range vecs {
				v := make([]float64, nFeat)
				for f := range v {
					v[f] = 0.2*float64(w) + rng.NormFloat64()
					if degraded {
						v[f] += 3
					}
				}
				vecs[t] = v
			}
			s := &dataset.Sample{
				Workload: "smoke", Run: fmt.Sprintf("r%d", r), Window: w,
				Degradation: 1, Vectors: vecs,
			}
			if degraded {
				s.Label, s.Degradation = 1, 3
			}
			ds.Add(s)
		}
	}
	fc, _, err := core.TrainForecasterCtx(context.Background(), ds, core.ForecasterConfig{
		Forecast: forecast.Config{History: 3, Horizons: []int{1, 2}},
		Train:    ml.TrainConfig{Epochs: 5},
		Seed:     2,
	})
	return fc, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "quantserve:", err)
	os.Exit(1)
}
