// Command figures regenerates every table and figure of the paper's
// evaluation on the simulated cluster, writing both a human-readable
// rendering (stdout + .txt) and CSV files for plotting.
//
// Usage:
//
//	figures [-only name] [-scale 1.0] [-epochs 60] [-seed 42] [-reps 0]
//	        [-out out/] [-profiles paper,nvme,fastnic] [-pprof localhost:6060]
//
// With no -only flag every experiment runs in paper order; -only runs the
// one named (figures -help lists the names), and an unknown name exits 2.
//
// -pprof serves net/http/pprof profiles and a /metrics runtime-metrics dump
// on the given address while the experiments run.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"quanterference/internal/dataset"
	"quanterference/internal/experiments"
	"quanterference/internal/hw"
	"quanterference/internal/label"
	"quanterference/internal/obs"
)

var (
	only     = flag.String("only", "", "run a single experiment: "+strings.Join(experimentNames(), ", "))
	scale    = flag.Float64("scale", 1.0, "workload volume scale factor")
	epochs   = flag.Int("epochs", 60, "training epochs for model experiments")
	seed     = flag.Int64("seed", 42, "root random seed")
	reps     = flag.Int("reps", 0, "training-sweep repetitions of the mitigation study, the only experiment that reads it (0 = its default)")
	outDir   = flag.String("out", "out", "output directory for .txt/.csv files")
	profiles = flag.String("profiles", "paper,nvme,fastnic", "comma-separated hardware profiles for the transfer and lead-time studies")
	pprofA   = flag.String("pprof", "", "serve net/http/pprof and /metrics on this address (e.g. localhost:6060)")
)

// profileList is -profiles, parsed and checked by main before any
// experiment runs.
var profileList []string

// experiment is one entry of the run list: name selects it with -only,
// title heads its step, and run computes it and emits its panels.
type experiment struct {
	name, title string
	run         func()
}

// experimentList is every experiment, in paper order.
var experimentList = []experiment{
	{"table1", "Table I: IO500 slowdown matrix", func() {
		r := experiments.TableI(experiments.TableIConfig{Scale: scaleFlag()})
		emit("table1", r.Table())
		write("table1.svg", r.SVG())
		task, interf, v := r.MaxCell()
		fmt.Printf("  most impacted: %s under %s (%.1fx)\n", task, interf, v)
	}},
	{"fig1a", "Figure 1(a): Enzo op latency vs interference level", func() {
		r := experiments.Figure1a(experiments.Figure1Config{Scale: scaleFlag()})
		emit("fig1a", r.Table())
		write("fig1a.svg", r.SVG())
	}},
	{"fig1b", "Figure 1(b): Enzo op latency vs interference type", func() {
		r := experiments.Figure1b(experiments.Figure1Config{Scale: scaleFlag()})
		emit("fig1b", r.Table())
		write("fig1b.svg", r.SVG())
	}},
	{"table2", "Table II: server-side metrics", func() {
		r := experiments.TableII(scaleFlag())
		emit("table2", r.Table())
	}},
	{"fig3a", "Figure 3(a): IO500 binary prediction", func() {
		ev := experiments.TrainEval("Figure 3(a) IO500 binary", io500(), label.BinaryBins(), *epochs, *seed)
		emit("fig3a", ev.Table())
		write("fig3a.svg", ev.SVG())
	}},
	{"fig3b", "Figure 3(b): DLIO binary prediction", func() {
		ev := experiments.Figure3b(datasetConfig(), *epochs)
		emit("fig3b", ev.Table())
		write("fig3b.svg", ev.SVG())
	}},
	{"fig4", "Figure 4: IO500 3-class prediction", func() {
		ev := experiments.Figure4From(io500(), datasetConfig(), *epochs)
		emit("fig4", ev.Table())
		write("fig4.svg", ev.SVG())
	}},
	{"fig5", "Figure 5: AMReX / Enzo / OpenPMD prediction", func() {
		fig5 := &experiments.Table{Title: "Figure 5: binary prediction per application"}
		for i, ev := range experiments.Figure5(datasetConfig(), *epochs) {
			panel := ev.Table()
			panel.Label = "# " + ev.Name
			fig5.Tables = append(fig5.Tables, panel)
			write(fmt.Sprintf("fig5_%d.svg", i), ev.SVG())
		}
		emit("fig5", fig5)
	}},
	{"ablation", "Ablations: architecture, feature groups, window size", func() {
		arch := experiments.AblationArchitecture(io500(), datasetConfig(), *epochs)
		emit("ablation_architecture", arch.Table())
		feats := experiments.AblationFeatures(io500(), datasetConfig(), *epochs)
		emit("ablation_features", feats.Table())
		win := experiments.AblationWindow(datasetConfig(), *epochs, nil)
		emit("ablation_window", win.Table())
	}},
	{"phases", "Phase study: per-phase slowdown of a multi-phase app", func() {
		r := experiments.PhaseStudy(experiments.PhaseStudyConfig{Scale: scaleFlag()})
		emit("phases", r.Table())
	}},
	{"robustness", "Robustness: accuracy/F1 across seeds", func() {
		r := experiments.Robustness(io500(), label.BinaryBins(), *epochs, 5, *seed)
		emit("robustness", r.Table())
	}},
	{"transfer", "Transfer: cross-profile model transfer", func() {
		r := experiments.TransferStudy(experiments.TransferConfig{
			Profiles: profileList,
			Scale:    scaleFlag(),
			Epochs:   *epochs,
			Seed:     *seed,
		})
		emit("transfer", r.Table())
	}},
	{"leadtime", "Lead time: forecast accuracy vs prediction horizon", func() {
		r := experiments.LeadTimeStudy(experiments.LeadTimeConfig{
			Profiles: profileList,
			Scale:    scaleFlag(),
			Epochs:   *epochs,
			Seed:     *seed,
		})
		emit("leadtime", r.Table())
	}},
	{"mitigation", "Mitigation: policy × fault × workload actuation study", func() {
		r := experiments.MitigationStudy(experiments.MitigationConfig{
			Scale:  scaleFlag(),
			Reps:   *reps,
			Epochs: *epochs,
			Seed:   *seed,
		})
		emit("mitigation", r.Table())
		if !r.ProactiveMatchesReactive() {
			fmt.Println("  WARNING: proactive policy never matched reactive slowdown-avoided")
		}
	}},
	{"shadow", "Shadow: N-way champion/challenger gate on a live stream", func() {
		r := experiments.ShadowStudy(io500(), experiments.ShadowStudyConfig{Seed: *seed})
		emit("shadow", r.Table())
		winner := r.Winner
		if winner == "" {
			winner = "champion (kept)"
		}
		fmt.Printf("  gate winner: %s\n", winner)
	}},
	{"extensions", "Extensions: attention architecture, exact-slowdown regression", func() {
		arch := experiments.ExtensionArchitectures(io500(), datasetConfig(), *epochs)
		emit("extension_architectures", arch.Table())
		reg := experiments.ExtensionRegression(io500(), datasetConfig(), *epochs)
		emit("extension_regression", reg.Table())
	}},
}

func experimentNames() []string {
	names := make([]string, len(experimentList))
	for i, e := range experimentList {
		names[i] = e.name
	}
	return names
}

func main() {
	flag.Parse()
	run := experimentList
	if sel := strings.ToLower(*only); sel != "" {
		run = nil
		for _, e := range experimentList {
			if e.name == sel {
				run = []experiment{e}
			}
		}
		if run == nil {
			fmt.Fprintf(os.Stderr, "figures: unknown experiment %q (valid: %s)\n",
				*only, strings.Join(experimentNames(), ", "))
			os.Exit(2)
		}
	}
	var err error
	if profileList, err = parseProfiles(*profiles); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(2)
	}
	if *pprofA != "" {
		go func() {
			if err := obs.ServeDebug(*pprofA); err != nil {
				fmt.Fprintln(os.Stderr, "figures: pprof:", err)
			}
		}()
		fmt.Printf("pprof + /metrics on http://%s/debug/pprof/\n", *pprofA)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	for _, e := range run {
		step(e.title, e.run)
	}
	fmt.Printf("done; outputs in %s/\n", *outDir)
}

// parseProfiles splits a -profiles list, rejecting an empty or unknown name.
func parseProfiles(list string) ([]string, error) {
	names := strings.Split(list, ",")
	for _, n := range names {
		if !slices.Contains(hw.Names(), n) {
			return nil, fmt.Errorf("unknown profile %q in -profiles (valid: %s)",
				n, strings.Join(hw.Names(), ", "))
		}
	}
	return names, nil
}

func scaleFlag() experiments.Scale { return experiments.Scale(*scale) }

func datasetConfig() experiments.DatasetConfig {
	return experiments.DatasetConfig{Scale: scaleFlag(), Seed: *seed}
}

// io500 returns the IO500 dataset, collecting it on first use: every
// experiment that trains on it shares one collection.
var io500 = sync.OnceValue(func() *dataset.Dataset {
	var ds *dataset.Dataset
	step("collecting IO500 dataset", func() {
		ds = experiments.IO500Dataset(datasetConfig())
		fmt.Printf("  %d samples, class balance %v\n", ds.Len(), ds.ClassCounts())
	})
	return ds
})

func step(name string, fn func()) {
	fmt.Printf("== %s\n", name)
	start := time.Now()
	fn()
	fmt.Printf("   (%.1fs)\n", time.Since(start).Seconds())
}

// emit writes a table's text panel (also echoed to stdout) and its CSV.
func emit(name string, t *experiments.Table) {
	txt := t.Render()
	fmt.Print(indent(txt))
	write(name+".txt", txt)
	write(name+".csv", t.CSV())
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return "  " + strings.Join(lines, "\n  ") + "\n"
}

func write(name, content string) {
	if err := os.WriteFile(filepath.Join(*outDir, name), []byte(content), 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}
