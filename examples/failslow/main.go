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
	"io"
	"log"
	"os"

	quant "quanterference"
	"quanterference/internal/experiments"
	"quanterference/internal/sim"
	"quanterference/internal/workload"
	"quanterference/internal/workload/io500"
)

// The fail-slow condition lasts from faultStart to heal, and the run ends
// at horizon, all in seconds. Windows are one second long, so window i
// covers [i, i+1).
const faultStart, heal, horizon = 2, 8, 12

func main() {
	if _, err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run trains on interference only, plays the fail-slow scenario, prints
// each window's prediction to w, and returns the predicted classes in
// window order (1 is the flagged >=2x class).
func run(w io.Writer) ([]int, error) {
	fmt.Fprintln(w, "training on cross-application interference data...")
	ds := experiments.IO500Dataset(experiments.DatasetConfig{Scale: 0.5, Seed: 31, Reps: 2})
	fw, cm, err := quant.TrainFrameworkE(ds, quant.FrameworkConfig{Seed: 31})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "dataset %d windows; held-out accuracy %.2f\n\n", ds.Len(), cm.Accuracy())

	// A quiet cluster: one writer, zero interference.
	cl := quant.NewCluster(quant.PaperProfile())
	bins := quant.BinaryBins()
	var classes []int
	mon := quant.AttachLive(cl, quant.Seconds(1), func(idx int, mat quant.WindowMatrix) {
		class, probs := fw.Predict(mat)
		classes = append(classes, class)
		marker := ""
		if class == 1 {
			marker = "  <-- flagged"
		}
		fmt.Fprintf(w, "t=%3ds  predicted %-5s p=%.2f%s\n", idx+1, bins.Name(class), probs[class], marker)
	})

	gen := io500.New(io500.IorEasyWrite, io500.Params{
		Dir: "/app", Ranks: 2, EasyFileBytes: 512 << 20, // long-running writer
	})
	app := &workload.Runner{
		FS: cl.FS, Name: "app", Nodes: []string{"c0"}, Ranks: 2,
		Gen: gen, OnRecord: mon.Record,
	}
	app.Start()

	// The fail-slow condition strikes the writer's OSTs.
	var faults []quant.FaultSpec
	for _, ost := range []string{"ost0", "ost1"} {
		faults = append(faults, quant.FaultSpec{
			Kind: quant.DiskSlow, Target: ost,
			Start: quant.Seconds(faultStart), Duration: quant.Seconds(heal - faultStart), Severity: 8,
		})
	}
	if err := cl.InjectFaults(faults); err != nil {
		return nil, err
	}
	cl.Eng.Schedule(quant.Seconds(faultStart), func() {
		fmt.Fprintln(w, "--- ost0+ost1 degrade 8x (fail-slow), no interference anywhere ---")
	})
	cl.Eng.Schedule(quant.Seconds(heal), func() {
		fmt.Fprintln(w, "--- disks healed ---")
	})

	cl.Eng.RunUntil(quant.Seconds(horizon))
	mon.Stop()
	fmt.Fprintf(w, "\nsimulated %.0fs; the interference-trained model doubles as a "+
		"fail-slow detector because both conditions share the queue-time signature\n",
		sim.ToSeconds(cl.Eng.Now()))
	return classes, nil
}
