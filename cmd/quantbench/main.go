// Command quantbench is the repository's end-to-end benchmark. It runs four
// workloads that together cover the system's three journeys — a study
// (simulate, collect, train, evaluate), one online.Loop step, and a served
// request, direct and through the fleet — and reports end-to-end metrics
// from untraced runs and per-layer metrics from traced runs (README.md).
//
// One run of one workload; the last line of standard output is the JSON
// result:
//
//	quantbench --workload serve-closed --seed 7 --seconds 20 --trace 0
//
// Every workload from one process, -reps seeds each, with a noise report:
//
//	quantbench -reps 5 [-trace 1] [-o ledger.json]
//
// Compare two ledgers metric by metric:
//
//	quantbench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	// The benchmark is sized for, and its baselines are taken on, two cores.
	runtime.GOMAXPROCS(2)

	workload := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 42, "input seed (suite mode: seed of the first rep)")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	reps := flag.Int("reps", 5, "suite mode: runs per workload (at least 3)")
	ledger := flag.String("o", "", "append each run to this JSON ledger")
	set := flag.Int("set", 1, "set number recorded with each run in the ledger")
	compare := flag.Bool("compare", false, "compare two ledgers given as arguments: a.json[@set] b.json[@set]")
	flag.Parse()

	logf := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "quantbench: "+format+"\n", args...)
	}
	if *compare {
		if flag.NArg() != 2 {
			usage("-compare takes two ledger files")
		}
		if err := compareLedgers(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if flag.NArg() != 0 {
		usage("unexpected arguments")
	}
	if *trace != 0 && *trace != 1 {
		usage("-trace must be 0 or 1")
	}
	if *seconds < 1 {
		usage("-seconds must be at least 1")
	}

	if *workload == "all" {
		if *reps < 3 {
			usage("-reps must be at least 3")
		}
		runs, err := runSuite(*seed, *reps, *seconds, *trace == 1, logf)
		if err != nil {
			fatal(err)
		}
		for _, r := range runs {
			r.Set = *set
		}
		if err := noiseReport(os.Stdout, runs); err != nil {
			fatal(err)
		}
		if *ledger != "" {
			if err := appendLedger(*ledger, runs); err != nil {
				fatal(err)
			}
		}
		for _, r := range runs {
			if !r.Correct {
				os.Exit(1)
			}
		}
		return
	}

	res, err := runWorkload(*workload, *seed, *seconds, *trace == 1, logf)
	if err != nil {
		fatal(err)
	}
	res.Set = *set
	for _, e := range res.Errors {
		logf("check failed: %s", e)
	}
	if *ledger != "" {
		if err := appendLedger(*ledger, []*runResult{res}); err != nil {
			fatal(err)
		}
	}
	printResult(res)
	if !res.Correct {
		os.Exit(1)
	}
}

// printResult writes the run's result line: correct, attempted, failed,
// and every metric of the run's table with its unit.
func printResult(res *runResult) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	tab := endToEnd
	if res.Trace == 1 {
		tab = perLayer
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, m := range tab {
		out.Metrics[m.Name] = value{res.Metrics[m.Name], m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func usage(msg string) {
	fmt.Fprintln(os.Stderr, "quantbench:", msg)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "quantbench:", err)
	os.Exit(1)
}
