// Command quanttrain trains and evaluates the paper's kernel-based model on
// a dataset produced by cmd/datagen, printing the confusion matrix and
// per-class precision/recall/F1 (the content of Figures 3-5).
//
// Usage:
//
//	quanttrain -data dataset.json [-bins binary|severity] [-epochs 60]
//	           [-flat] [-seed 42] [-save framework.json]
//	           [-pprof localhost:6060]
//
// -pprof serves net/http/pprof profiles and a /metrics runtime-metrics dump
// on the given address for the duration of training.
package main

import (
	"flag"
	"fmt"
	"os"

	"quanterference/internal/core"
	"quanterference/internal/dataset"
	"quanterference/internal/label"
	"quanterference/internal/ml"
	"quanterference/internal/obs"
)

var (
	dataPath = flag.String("data", "dataset.json", "dataset JSON from cmd/datagen")
	binsName = flag.String("bins", "binary", "binary (>=2x) or severity (<2, 2-5, >=5)")
	epochs   = flag.Int("epochs", 60, "training epochs")
	flat     = flag.Bool("flat", false, "use the flat-MLP ablation baseline instead of the kernel model")
	seed     = flag.Int64("seed", 42, "random seed for split and init")
	savePath = flag.String("save", "", "persist the trained framework (model + scaler + bins) to this file")
	workers  = flag.Int("train-workers", 0, "data-parallel gradient workers (0 = each batch's gradients on the model alone; weights are identical for any value >= 1)")
	pprofAdr = flag.String("pprof", "", "serve net/http/pprof and /metrics on this address (e.g. localhost:6060)")
)

func main() {
	flag.Parse()
	if *pprofAdr != "" {
		go func() {
			if err := obs.ServeDebug(*pprofAdr); err != nil {
				fmt.Fprintln(os.Stderr, "quanttrain: pprof:", err)
			}
		}()
		fmt.Printf("pprof + /metrics on http://%s/debug/pprof/\n", *pprofAdr)
	}
	ds, err := dataset.Load(*dataPath)
	if err != nil {
		fatal(err)
	}
	var bins label.Bins
	switch *binsName {
	case "binary":
		bins = label.BinaryBins()
	case "severity":
		bins = label.SeverityBins()
	default:
		fatal(fmt.Errorf("unknown bins %q", *binsName))
	}
	if bins.Classes() != ds.Classes {
		// Re-derive labels from the stored degradation levels.
		ds = ds.Rebin(bins.Classes(), bins.Label)
	}
	fmt.Printf("dataset: %d samples, balance %v, %d targets x %d features\n",
		ds.Len(), ds.ClassCounts(), ds.NTargets, len(ds.FeatureNames))

	cfg := core.FrameworkConfig{
		Bins: bins, Seed: *seed,
		Train: ml.TrainConfig{
			Epochs: *epochs, Seed: *seed, Workers: *workers,
			OnEpoch: func(e int, loss float64) {
				if (e+1)%10 == 0 {
					fmt.Printf("  epoch %3d  loss %.4f\n", e+1, loss)
				}
			},
		},
	}
	if *flat {
		cfg.NewModel = func(nTargets, nFeat, classes int, seed int64) ml.Model {
			return ml.NewFlatModel(nTargets, nFeat, classes, seed)
		}
	}
	fw, cm, err := core.TrainFrameworkE(ds, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Println()
	fmt.Print(cm.Render(bins.Names()))
	if *savePath != "" {
		if err := fw.Save(*savePath); err != nil {
			fatal(err)
		}
		fmt.Printf("framework saved to %s\n", *savePath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "quanttrain:", err)
	os.Exit(1)
}
