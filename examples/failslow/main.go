// Fail-slow detection: a generalization probe. The predictor is trained
// only on cross-application interference (§III-D), yet a fail-slow OST — a
// disk serving requests correctly but several times slower, the phenomenon
// behind the paper's severity bins (Lu et al., Perseus) — produces the same
// server-side signature (inflated queue times under normal client load).
// This example trains the model on interference data, then injects an
// 8x-degraded disk mid-run with NO external interference at all, and shows
// the per-window predictions flipping.
package main

import (
	"fmt"
	"log"

	quant "quanterference"
	"quanterference/internal/experiments"
	"quanterference/internal/sim"
	"quanterference/internal/workload"
	"quanterference/internal/workload/io500"
)

func main() {
	// Train on interference only.
	fmt.Println("training on cross-application interference data...")
	ds := experiments.IO500Dataset(experiments.DatasetConfig{Scale: 0.5, Seed: 31, Reps: 2})
	fw, cm, err := quant.TrainFrameworkE(ds, quant.FrameworkConfig{Seed: 31})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset %d windows; held-out accuracy %.2f\n\n", ds.Len(), cm.Accuracy())

	// A quiet cluster: one writer, zero interference.
	cl := quant.NewCluster(quant.PaperTopology(), quant.Config{})
	bins := quant.BinaryBins()
	mon := quant.AttachLive(cl, quant.Seconds(1), func(idx int, mat quant.WindowMatrix) {
		class, probs := fw.Predict(mat)
		marker := ""
		if class == 1 {
			marker = "  <-- flagged"
		}
		fmt.Printf("t=%3ds  predicted %-5s p=%.2f%s\n", idx+1, bins.Name(class), probs[class], marker)
	})

	gen := io500.New(io500.IorEasyWrite, io500.Params{
		Dir: "/app", Ranks: 2, EasyFileBytes: 512 << 20, // long-running writer
	})
	app := &workload.Runner{
		FS: cl.FS, Name: "app", Nodes: []string{"c0"}, Ranks: 2,
		Gen: gen, OnRecord: mon.Record,
	}
	app.Start()

	// The fail-slow condition strikes the writer's OSTs at t=2s and heals
	// at t=8s.
	var faults []quant.FaultSpec
	for _, ost := range []string{"ost0", "ost1"} {
		faults = append(faults, quant.FaultSpec{
			Kind: quant.DiskSlow, Target: ost,
			Start: quant.Seconds(2), Duration: quant.Seconds(6), Severity: 8,
		})
	}
	if err := cl.InjectFaults(faults); err != nil {
		log.Fatal(err)
	}
	cl.Eng.Schedule(quant.Seconds(2), func() {
		fmt.Println("--- ost0+ost1 degrade 8x (fail-slow), no interference anywhere ---")
	})
	cl.Eng.Schedule(quant.Seconds(8), func() {
		fmt.Println("--- disks healed ---")
	})

	cl.Eng.RunUntil(quant.Seconds(12))
	mon.Stop()
	fmt.Printf("\nsimulated %.0fs; the interference-trained model doubles as a "+
		"fail-slow detector because both conditions share the queue-time signature\n",
		sim.ToSeconds(cl.Eng.Now()))
}
