// Command quantonline demonstrates the continuous-learning pipeline end to
// end on the simulator: it trains an incumbent, serves it, replays a healthy
// window stream, injects fail-slow disks to force distribution drift,
// retrains a warm-started candidate, promotes it through the server's atomic
// hot-reload under concurrent load, and finally forces the promotion gate
// impossible (shadow.RejectAll) to demonstrate rejection with rollback.
//
// Usage:
//
//	quantonline -smoke [-seed 42] [-epochs 25] [-workers 2]
//
// The episode is deterministic: the same seed prints the same decision
// timeline and promotes bit-identical weights. `make online-smoke` runs it.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"quanterference/internal/online"
)

var (
	smoke   = flag.Bool("smoke", false, "run the deterministic end-to-end smoke episode")
	seed    = flag.Int64("seed", 42, "episode seed (simulation, training, loop)")
	epochs  = flag.Int("epochs", 25, "epochs for initial training and every retrain")
	workers = flag.Int("workers", 2, "parallel training workers (deterministic for any value)")
	verbose = flag.Bool("v", true, "print per-phase progress")
)

func main() {
	flag.Parse()
	if !*smoke {
		fmt.Fprintln(os.Stderr, "quantonline: only -smoke mode is implemented; see -h")
		os.Exit(2)
	}

	logf := func(string, ...interface{}) {}
	if *verbose {
		logf = func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, "quantonline: "+format+"\n", args...)
		}
	}
	res, err := online.SmokeEpisode(context.Background(), online.SmokeConfig{
		Seed:    *seed,
		Epochs:  *epochs,
		Workers: *workers,
		Log:     logf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "quantonline:", err)
		os.Exit(1)
	}

	fmt.Printf("incumbent holdout accuracy: %.3f\n", res.TrainAccuracy)
	fmt.Printf("decisions (%d):\n", len(res.Timeline))
	for _, line := range res.Timeline {
		fmt.Println("  " + line)
	}
	fmt.Printf("drift trips=%d retrains=%d promotions=%d rejections=%d rollbacks=%d\n",
		res.DriftTrips, res.Retrains, res.Promotions, res.Rejections, res.Rollbacks)
	fmt.Printf("concurrent load during reloads: ok=%d shed=%d failed=%d\n",
		res.HammerOK, res.HammerShed, res.HammerErr)
	fmt.Println("smoke episode OK")
}
