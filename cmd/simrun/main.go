// Command simrun executes one workload scenario on the simulated cluster
// and reports the target's per-operation-type latency profile plus every
// storage target's server-side counters — a quick way to explore how a
// workload behaves under a chosen interference pattern.
//
// Usage:
//
//	simrun -target ior-easy-write [-ranks 4]
//	       [-interference ior-easy-read -instances 3 -iranks 6]
//	       [-scale 1.0] [-maxtime 300] [-trace run.dxt]
//	       [-trace-events run.json] [-stats]
//	       [-faults disk-slow:ost0:10:5:4,mds-storm:mdt:0:20:8] [-rpc-timeout 0.5]
//
// -faults injects deterministic degraded-mode episodes (fail-slow disk, OST
// stall, cache squeeze, MDS storm, NIC collapse); -rpc-timeout arms the
// clients' timeout/retry path so the run reports degraded-mode counters.
//
// -trace-events writes a Chrome trace-event file of the simulator's own
// internals (disk service, block-queue latency, network flows, OST flushes,
// MDS ops) — load it in about:tracing or https://ui.perfetto.dev. -stats
// prints the end-of-run observability counters for every component.
//
// Target and interference accept any IO500 task name (ior-easy-read,
// ior-hard-write, mdt-easy-write, ...), a DLIO model (dlio-unet3d,
// dlio-bert), or an application (enzo, amrex, openpmd).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"quanterference/internal/core"
	"quanterference/internal/fault"
	"quanterference/internal/monitor/clientmon"
	"quanterference/internal/obs"
	"quanterference/internal/sim"
	"quanterference/internal/trace"
	"quanterference/internal/workload/registry"
)

var (
	target    = flag.String("target", "ior-easy-write", "target workload name")
	ranks     = flag.Int("ranks", 4, "target ranks")
	interf    = flag.String("interference", "", "interference workload name (empty = none)")
	instances = flag.Int("instances", 3, "interference instances")
	iranks    = flag.Int("iranks", 6, "ranks per interference instance")
	scale     = flag.Float64("scale", 1.0, "workload volume scale")
	maxTime   = flag.Float64("maxtime", 300, "simulated time cap in seconds")
	tracePath = flag.String("trace", "", "write the target's DXT-style op trace to this file")
	profile   = flag.Bool("profile", false, "print a Darshan-style per-file profile of the target")
	eventPath = flag.String("trace-events", "", "write a Chrome trace-event JSON of simulator internals to this file")
	stats     = flag.Bool("stats", false, "print the end-of-run observability counters")
	faults    = flag.String("faults", "", "comma-separated fault episodes, each kind:target:start:duration[:severity] with times in seconds (e.g. disk-slow:ost0:10:5:4)")
	rpcTO     = flag.Float64("rpc-timeout", 0, "client bulk-RPC timeout in seconds (0 = no timeouts; set alongside -faults to exercise retries)")
)

func main() {
	flag.Parse()
	gen, err := registry.Resolve(*target, registry.Spec{
		Dir: "/target", Ranks: *ranks, Scale: *scale,
	})
	if err != nil {
		fatal(err)
	}
	scenario := core.Scenario{
		Target: core.TargetSpec{
			Gen: gen, Nodes: []string{"c0", "c1"}, Ranks: *ranks,
		},
		MaxTime: sim.Seconds(*maxTime),
	}
	if *faults != "" {
		specs, err := fault.ParseSpecs(*faults)
		if err != nil {
			fatal(err)
		}
		scenario.Faults = specs
	}
	scenario.RPCTimeout = sim.Seconds(*rpcTO)
	if *interf != "" {
		for i := 0; i < *instances; i++ {
			igen, err := registry.Resolve(*interf, registry.Spec{
				Dir: fmt.Sprintf("/bg%d", i), Ranks: *iranks, Scale: *scale,
			})
			if err != nil {
				fatal(err)
			}
			scenario.Interference = append(scenario.Interference, core.InterferenceSpec{
				Gen: igen, Nodes: []string{"c2", "c3", "c4", "c5", "c6"}, Ranks: *iranks,
			})
		}
	}
	sink := obs.New()
	if *eventPath != "" {
		sink.EnableTrace(0)
	}
	res, err := core.RunE(scenario, core.WithSink(sink))
	if err != nil {
		fatal(err)
	}
	if *eventPath != "" {
		f, err := os.Create(*eventPath)
		if err != nil {
			fatal(err)
		}
		if err := sink.WriteTrace(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d trace events to %s (dropped %d)\n",
			sink.TraceSpans(), *eventPath, sink.TraceDropped())
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		tw := trace.NewWriter(f)
		for _, rec := range res.Records {
			tw.Write(rec)
		}
		if err := tw.Flush(); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d trace records to %s\n", tw.Count(), *tracePath)
	}
	fmt.Printf("target %s ranks=%d interference=%q x%d\n", *target, *ranks, *interf, *instances)
	fmt.Printf("finished=%v duration=%.3fs ops=%d windows=%d\n",
		res.Finished, sim.ToSeconds(res.Duration), len(res.Records), len(res.Windows))
	if len(scenario.Faults) > 0 {
		fmt.Printf("faults injected=%d timeouts=%d retries=%d degraded_ops=%d\n",
			res.Stats.CounterTotal("fault", "injected"),
			res.Stats.CounterTotal("client", "timeouts"),
			res.Stats.CounterTotal("client", "retries"),
			res.Stats.CounterTotal("client", "degraded_ops"))
	}
	fmt.Println()

	// Per-op-kind latency profile.
	type agg struct {
		n          int
		total, max sim.Time
	}
	byKind := map[string]*agg{}
	for _, rec := range res.Records {
		k := rec.Op.Kind.String()
		a, ok := byKind[k]
		if !ok {
			a = &agg{}
			byKind[k] = a
		}
		a.n++
		a.total += rec.Duration()
		if rec.Duration() > a.max {
			a.max = rec.Duration()
		}
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Printf("%-8s%10s%14s%14s\n", "op", "count", "mean(ms)", "max(ms)")
	for _, k := range kinds {
		a := byKind[k]
		fmt.Printf("%-8s%10d%14.3f%14.3f\n", k, a.n,
			sim.ToSeconds(a.total)/float64(a.n)*1e3, sim.ToSeconds(a.max)*1e3)
	}

	if *profile {
		prof := clientmon.NewProfiler()
		for _, rec := range res.Records {
			prof.Record(rec)
		}
		fmt.Printf("\nper-file profile (top 12 by I/O time):\n%s", prof.Render(12))
	}

	// Server-side counters: last finalized window, per target.
	fmt.Printf("\nserver-side metrics (last window):\n")
	idxs := make([]int, 0, len(res.ServerWindows))
	for idx := range res.ServerWindows {
		idxs = append(idxs, idx)
	}
	if len(idxs) > 0 {
		sort.Ints(idxs)
		last := res.ServerWindows[idxs[len(idxs)-1]]
		names := []string{"ost0", "ost1", "ost2", "ost3", "ost4", "ost5", "mdt"}
		fmt.Printf("%-6s%16s%16s%16s\n", "tgt", "completed_ios", "sectors_w", "queue_time_s")
		for t, vec := range last {
			name := "?"
			if t < len(names) {
				name = names[t]
			}
			fmt.Printf("%-6s%16.0f%16.0f%16.3f\n", name, vec[0], vec[6], vec[18])
		}
	}

	if *stats {
		fmt.Printf("\nobservability counters:\n%s", res.Stats.Render())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simrun:", err)
	os.Exit(1)
}
