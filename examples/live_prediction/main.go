// Live prediction: train the interference predictor offline, then attach it
// to a running cluster and classify every time window online while an
// Enzo-like application runs under shifting interference — the runtime path
// of the paper's Figure 2.
package main

import (
	"fmt"
	"log"

	quant "quanterference"
	"quanterference/internal/experiments"
	"quanterference/internal/sim"
	"quanterference/internal/workload"
	"quanterference/internal/workload/apps"
	"quanterference/internal/workload/io500"
)

func main() {
	// Offline phase: collect the Enzo dataset and train the framework.
	fmt.Println("collecting training data (Enzo under IO500 interference sweeps)...")
	// Train at the same workload scale the live application runs at —
	// like the paper, the model is trained on the application it serves.
	ds := experiments.AppDataset(apps.Enzo, experiments.DatasetConfig{
		Scale: 1, Seed: 11, Reps: 2,
	})
	fmt.Printf("dataset: %d windows, balance %v\n", ds.Len(), ds.ClassCounts())
	fw, confusion, err := quant.TrainFrameworkE(ds, quant.FrameworkConfig{Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("offline test accuracy: %.2f\n\n", confusion.Accuracy())

	// Online phase: fresh cluster, live monitors, per-window prediction.
	cl := quant.NewCluster(quant.PaperProfile())
	window := quant.Seconds(1)
	bins := quant.BinaryBins()

	mon := quant.AttachLive(cl, window, func(idx int, mat quant.WindowMatrix) {
		class, probs := fw.Predict(mat)
		bar := ""
		for i := 0; i < int(probs[class]*20); i++ {
			bar += "#"
		}
		fmt.Printf("t=%3ds  predicted %-5s p=%.2f %s\n",
			idx+1, bins.Name(class), probs[class], bar)
	})

	// The measured application.
	// The live application mirrors the training configuration (same rank
	// count and checkpoint size), as §IV-C trains per application.
	enzo := &workload.Runner{
		FS:   cl.FS,
		Name: "enzo",
		Gen: apps.New(apps.Enzo, apps.Params{
			// Enough cycles to keep writing for the whole 16 s demo.
			Dir: "/live-enzo", Ranks: 4, Cycles: 60, CheckpointBytes: 8 << 20,
		}),
		Nodes:    []string{"c0", "c1"},
		Ranks:    4,
		OnRecord: mon.Record,
	}
	enzo.Start()

	// Interference arrives mid-run: the same mixed IO500 load the model
	// was trained against (2 instances each of writes, reads, metadata).
	cl.Eng.Schedule(quant.Seconds(4), func() {
		fmt.Println("--- interference arrives (2x each: ior-easy-write, ior-easy-read, mdt-easy-write) ---")
		tasks := []io500.Task{io500.IorEasyWrite, io500.IorEasyRead, io500.MdtEasyWrite}
		for i, task := range tasks {
			for j := 0; j < 2; j++ {
				bg := &workload.Runner{
					FS:   cl.FS,
					Name: fmt.Sprintf("bg%d-%d", i, j),
					Gen: io500.New(task, io500.Params{
						Dir: fmt.Sprintf("/live-bg%d-%d", i, j), Ranks: 6,
						EasyFileBytes: 32 << 20, MdtFiles: 200,
					}),
					Nodes: []string{"c2", "c3", "c4"},
					Ranks: 6,
					Loop:  true,
				}
				bg.Start()
				bgStops = append(bgStops, bg.Stop)
			}
		}
	})

	cl.Eng.RunUntil(quant.Seconds(16))
	for _, stop := range bgStops {
		stop()
	}
	mon.Stop()
	fmt.Printf("\nsimulated %.0fs of runtime prediction\n", sim.ToSeconds(cl.Eng.Now()))
}

var bgStops []func()
