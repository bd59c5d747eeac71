// Benchmarks regenerating each of the paper's tables and figures at reduced
// scale (one bench per evaluation element; cmd/figures runs them full size),
// plus micro-benchmarks of the substrates. Run:
//
//	go test -bench=. -benchmem
package quanterference_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	quant "quanterference"
	"quanterference/internal/bb"
	"quanterference/internal/dataset"
	"quanterference/internal/disk"
	"quanterference/internal/experiments"
	"quanterference/internal/forecast"
	"quanterference/internal/hw"
	"quanterference/internal/label"
	"quanterference/internal/lustre"
	"quanterference/internal/mitigate"
	"quanterference/internal/ml"
	"quanterference/internal/netsim"
	"quanterference/internal/online"
	"quanterference/internal/sim"
	"quanterference/internal/trace"
	"quanterference/internal/workload"
	"quanterference/internal/workload/io500"
)

// benchScale keeps each iteration around a second.
const benchScale = experiments.Scale(0.15)

// BenchmarkTableI regenerates the IO500 slowdown matrix (Table I).
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.TableI(experiments.TableIConfig{
			Scale: benchScale, Instances: 2, RanksPerInstance: 3, TargetRanks: 2,
		})
		if len(r.Tasks) != 7 {
			b.Fatal("bad matrix")
		}
	}
}

// BenchmarkFigure1a regenerates the Enzo interference-level series.
func BenchmarkFigure1a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure1a(experiments.Figure1Config{Scale: benchScale, Cycles: 3})
		if len(r.Labels) != 4 {
			b.Fatal("bad series")
		}
	}
}

// BenchmarkFigure1b regenerates the Enzo interference-type series.
func BenchmarkFigure1b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure1b(experiments.Figure1Config{Scale: benchScale, Cycles: 3})
		if len(r.Labels) != 3 {
			b.Fatal("bad series")
		}
	}
}

// BenchmarkTableII regenerates the server-side metric capture.
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.TableII(benchScale)
		if len(r.Values) != 7 {
			b.Fatal("bad metrics")
		}
	}
}

func benchDatasetCfg() experiments.DatasetConfig {
	return experiments.DatasetConfig{Scale: benchScale, Seed: 42, Reps: 1}
}

// BenchmarkFigure3aIO500 collects the IO500 dataset and trains the binary
// model (Figure 3a). Besides allocations it reports gcs/op, the garbage
// collections one study triggers: collection cost is mostly the collector's
// (make bench-collect runs it five times).
func BenchmarkFigure3aIO500(b *testing.B) {
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		ev := experiments.Figure3a(benchDatasetCfg(), 20)
		if ev.Confusion.Total() == 0 {
			b.Fatal("empty eval")
		}
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "gcs/op")
}

// BenchmarkFigure3bDLIO collects the DLIO dataset and trains the binary
// model (Figure 3b).
func BenchmarkFigure3bDLIO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ev := experiments.Figure3b(benchDatasetCfg(), 20)
		if ev.Confusion.Total() == 0 {
			b.Fatal("empty eval")
		}
	}
}

// BenchmarkFigure4MultiClass trains the 3-class model (Figure 4).
func BenchmarkFigure4MultiClass(b *testing.B) {
	cfg := benchDatasetCfg()
	ds := experiments.IO500Dataset(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := experiments.Figure4From(ds, cfg, 20)
		if len(ev.ClassNames) != 3 {
			b.Fatal("bad classes")
		}
	}
}

// BenchmarkFigure5Apps trains the per-application models (Figure 5).
func BenchmarkFigure5Apps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		evs := experiments.Figure5(benchDatasetCfg(), 20)
		if len(evs) != 3 {
			b.Fatal("bad panels")
		}
	}
}

// BenchmarkAblationArchitecture compares kernel vs flat models.
func BenchmarkAblationArchitecture(b *testing.B) {
	cfg := benchDatasetCfg()
	ds := experiments.IO500Dataset(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.AblationArchitecture(ds, cfg, 15)
		if len(r.Evals) != 2 {
			b.Fatal("bad ablation")
		}
	}
}

// BenchmarkAblationFeatures compares feature groups.
func BenchmarkAblationFeatures(b *testing.B) {
	cfg := benchDatasetCfg()
	ds := experiments.IO500Dataset(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.AblationFeatures(ds, cfg, 15)
		if len(r.Evals) != 3 {
			b.Fatal("bad ablation")
		}
	}
}

// BenchmarkAblationWindow sweeps the aggregation window size.
func BenchmarkAblationWindow(b *testing.B) {
	cfg := benchDatasetCfg()
	for i := 0; i < b.N; i++ {
		r := experiments.AblationWindow(cfg, 10, []sim.Time{sim.Second, 2 * sim.Second})
		if len(r.Evals) != 2 {
			b.Fatal("bad ablation")
		}
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkSimEngine measures raw event throughput.
func BenchmarkSimEngine(b *testing.B) {
	eng := sim.NewEngine()
	var fn func()
	n := 0
	fn = func() {
		n++
		if n < b.N {
			eng.Schedule(1, fn)
		}
	}
	b.ResetTimer()
	eng.Schedule(1, fn)
	eng.Run()
}

// BenchmarkDiskService measures device-model service-time computation.
func BenchmarkDiskService(b *testing.B) {
	eng := sim.NewEngine()
	d := disk.New(eng, disk.Config{Seed: 1})
	rng := sim.NewRNG(2)
	b.ResetTimer()
	done := 0
	for i := 0; i < b.N; i++ {
		d.Submit(&disk.Request{
			Op: disk.Read, Sector: rng.Int63n(1 << 30), Sectors: 64,
			Done: func() { done++ },
		})
		eng.Run()
	}
	if done != b.N {
		b.Fatal("lost requests")
	}
}

// BenchmarkNetTransfer measures fair-share network recomputation with
// 8 concurrent flows.
func BenchmarkNetTransfer(b *testing.B) {
	eng := sim.NewEngine()
	net := netsim.New(eng, netsim.Config{})
	var srcs []netsim.Endpoint
	for _, n := range []string{"a", "b", "c", "d"} {
		srcs = append(srcs, net.AddNode(n, 0))
	}
	srv := net.AddNode("srv", 0)
	b.ResetTimer()
	done := 0
	for i := 0; i < b.N; i++ {
		net.Transfer(srcs[i%4], srv, 1<<20, func() { done++ })
		if (i+1)%8 == 0 {
			eng.Run()
		}
	}
	eng.Run()
	if done != b.N {
		b.Fatal("lost transfers")
	}
}

// BenchmarkLustreWrite measures the full client->OST write path.
func BenchmarkLustreWrite(b *testing.B) {
	cl := quant.NewCluster(quant.PaperProfile())
	eng, fs := cl.Eng, cl.FS
	c := fs.Client("c0")
	var h *lustre.Handle
	c.Create("/bench", 1, func(hh *lustre.Handle) { h = hh })
	eng.Run()
	b.ResetTimer()
	done := 0
	for i := 0; i < b.N; i++ {
		c.Write(h, int64(i%256)<<20, 1<<20, func() { done++ })
		eng.Run()
	}
	if done != b.N {
		b.Fatal("lost writes")
	}
}

// BenchmarkScenarioRun measures one full measurement run.
func BenchmarkScenarioRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := quant.RunE(quant.Scenario{
			Target: quant.TargetSpec{
				Gen: io500.New(io500.IorEasyWrite, io500.Params{
					Dir: "/b", Ranks: 2, EasyFileBytes: 16 << 20}),
				Nodes: []string{"c0"},
				Ranks: 2,
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Finished {
			b.Fatal("run truncated")
		}
	}
}

func benchScenario() quant.Scenario {
	return quant.Scenario{
		Target: quant.TargetSpec{
			Gen: io500.New(io500.IorEasyWrite, io500.Params{
				Dir: "/b", Ranks: 2, EasyFileBytes: 16 << 20}),
			Nodes: []string{"c0"},
			Ranks: 2,
		},
	}
}

// BenchmarkRun measures RunE on its default path — metrics always on (the
// private per-run sink), tracing off — and reports the simulator's own
// observability counters alongside ns/op, so a perf regression can be
// attributed to event volume vs per-event cost.
func BenchmarkRun(b *testing.B) {
	var events, reqs uint64
	for i := 0; i < b.N; i++ {
		res, err := quant.RunE(benchScenario())
		if err != nil {
			b.Fatal(err)
		}
		if !res.Finished {
			b.Fatal("run truncated")
		}
		events += res.Stats.CounterTotal("engine", "events_executed")
		reqs += res.Stats.CounterTotal("disk", "requests")
	}
	b.ReportMetric(float64(events)/float64(b.N), "simevents/op")
	b.ReportMetric(float64(reqs)/float64(b.N), "diskreqs/op")
}

// BenchmarkRunProfiles measures the same default run under every named
// hardware profile — the per-backend cost of the HardwareProfile API. The
// paper sub-benchmark should match BenchmarkRun; nvme/fastnic/burstbuffer
// quantify how much simulated time (and host work) each backend shifts.
func BenchmarkRunProfiles(b *testing.B) {
	for _, name := range quant.ProfileNames() {
		p, err := quant.ProfileByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := benchScenario()
				s.Hardware = p
				res, err := quant.RunE(s)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Finished {
					b.Fatal("run truncated")
				}
			}
		})
	}
}

// BenchmarkRunTraced is the same run with span collection enabled, bounding
// the cost of -trace-events.
func BenchmarkRunTraced(b *testing.B) {
	var spans int
	for i := 0; i < b.N; i++ {
		sink := quant.NewSink()
		sink.EnableTrace(0)
		res, err := quant.RunE(benchScenario(), quant.WithSink(sink))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Finished {
			b.Fatal("run truncated")
		}
		spans += sink.TraceSpans()
	}
	b.ReportMetric(float64(spans)/float64(b.N), "spans/op")
}

// BenchmarkKernelModelTrainStep measures one epoch over 256 samples.
func BenchmarkKernelModelTrainStep(b *testing.B) {
	ds := syntheticDataset(256)
	m := ml.NewKernelModel(ml.KernelConfig{NTargets: 7, NFeat: 34, Classes: 2, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ml.Train(m, ds, ml.TrainConfig{Epochs: 1, Seed: int64(i)})
	}
}

// BenchmarkTrainEpoch measures one training epoch over 256 samples at each
// worker count. The serial case is the legacy non-sharded loop (Workers: 0);
// every Workers >= 1 case runs the sharded path and produces bit-identical
// weights, so the sweep isolates the cost/benefit of data parallelism alone.
func BenchmarkTrainEpoch(b *testing.B) {
	ds := syntheticDataset(256)
	for _, w := range []int{0, 1, 2, 4, 8} {
		name := "serial"
		if w > 0 {
			name = fmt.Sprintf("workers=%d", w)
		}
		b.Run(name, func(b *testing.B) {
			m := ml.NewKernelModel(ml.KernelConfig{NTargets: 7, NFeat: 34, Classes: 2, Seed: 1})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ml.Train(m, ds, ml.TrainConfig{Epochs: 1, Seed: int64(i), Workers: w})
			}
		})
	}
}

// BenchmarkEngineStep measures one schedule+dispatch cycle through the event
// loop — the simulator's smallest unit of work — with the queue holding
// `pending` events at every dispatch, so the deep case pays the heap's
// sifts. Both depths stay allocation-free.
func BenchmarkEngineStep(b *testing.B) {
	for _, pending := range []int{1, 1024} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			eng := sim.NewEngine()
			fn := func() {}
			// Background events, later than any time this loop reaches.
			for i := 1; i < pending; i++ {
				eng.At(sim.Time(1)<<62+sim.Time(i), fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Schedule(1, fn)
				eng.Step()
			}
		})
	}
}

// BenchmarkKernelModelPredict measures single-window inference latency — the
// runtime cost of the online predictor.
func BenchmarkKernelModelPredict(b *testing.B) {
	ds := syntheticDataset(1)
	m := ml.NewKernelModel(ml.KernelConfig{NTargets: 7, NFeat: 34, Classes: 2, Seed: 1})
	vecs := ds.Samples[0].Vectors
	dst := make([]float64, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ProbsInto(dst, vecs)
	}
}

// benchFramework assembles a serving framework directly (no training — the
// weights' values don't matter for timing) plus a 32-window batch.
func benchFramework() (*quant.Framework, []quant.WindowMatrix) {
	ds := syntheticDataset(32)
	fw := &quant.Framework{
		Bins:   label.BinaryBins(),
		Model:  ml.NewKernelModel(ml.KernelConfig{NTargets: 7, NFeat: 34, Classes: 2, Seed: 1}),
		Scaler: dataset.FitScaler(ds),
	}
	mats := make([]quant.WindowMatrix, ds.Len())
	for i := range mats {
		mats[i] = ds.Samples[i].Vectors
	}
	return fw, mats
}

// BenchmarkFrameworkPredict measures 32 windows classified one Predict call
// at a time — a batch of one each plus a copy of its probabilities, the cost
// a caller pays without batching.
func BenchmarkFrameworkPredict(b *testing.B) {
	fw, mats := benchFramework()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, mat := range mats {
			fw.Predict(mat)
		}
	}
}

// BenchmarkFrameworkPredictBatch measures the same 32 windows through one
// PredictBatch call — the serving hot path: amortized scratch, cache-free
// nn.Infer, zero steady-state allocations. Compare ns/op against
// BenchmarkFrameworkPredict for the batching speedup.
func BenchmarkFrameworkPredictBatch(b *testing.B) {
	fw, mats := benchFramework()
	fw.PredictBatch(mats) // warm the scratch so steady state is measured
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fw.PredictBatch(mats)
	}
}

// BenchmarkForecastPredict measures one full forecast — pooling a 4-window
// history of 7x34 matrices and running all three horizon heads — the
// per-window cost the online loop and /forecast endpoint pay. Steady state
// reuses the forecaster's pooled/scaled scratch; only the returned
// Prediction allocates.
func BenchmarkForecastPredict(b *testing.B) {
	const history, nTargets, nFeat = 4, 7, 34
	fc := &forecast.Forecaster{History: history, Threshold: 1, Bins: label.BinaryBins()}
	for _, k := range []int{1, 2, 4} {
		scaler := &dataset.Scaler{Mean: make([]float64, 2*nFeat), Std: make([]float64, 2*nFeat)}
		for j := range scaler.Std {
			scaler.Std[j] = 1
		}
		fc.Heads = append(fc.Heads, &forecast.Head{
			Horizon: k,
			Model: ml.NewKernelModel(ml.KernelConfig{
				NTargets: history, NFeat: 2 * nFeat, Classes: 2, Seed: 1 + int64(k),
			}),
			Scaler: scaler,
		})
	}
	ds := syntheticDataset(history)
	hist := make([]quant.WindowMatrix, history)
	for i := range hist {
		hist[i] = ds.Samples[i].Vectors
	}
	if _, err := fc.Predict(hist); err != nil { // warm the scratch
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fc.Predict(hist); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDriftDetector measures the continuous-learning monitor's per-window
// cost: one ObserveWindow (streaming moment update over 7 targets × 34
// features) plus one full Score (per-feature z/effect/variance-ratio sweep) —
// the work internal/online pays on every live window.
func BenchmarkDriftDetector(b *testing.B) {
	ds := syntheticDataset(64)
	det := online.NewDetector(dataset.FitScaler(ds), 0.95, online.DriftConfig{})
	mats := make([]quant.WindowMatrix, ds.Len())
	for i := range mats {
		mats[i] = ds.Samples[i].Vectors
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.ObserveWindow(mats[i%len(mats)])
		if s := det.Score(); s.Windows == 0 {
			b.Fatal("no observations")
		}
	}
}

// BenchmarkWarmStartEpoch measures one incremental retraining epoch from an
// incumbent's weights (clone + scaler reuse + single epoch) against the cost
// of the same epoch from scratch — the marginal price of a continuous-learning
// retrain.
func BenchmarkWarmStartEpoch(b *testing.B) {
	ds := syntheticDataset(256)
	incumbent, _, err := quant.TrainFrameworkE(ds, quant.FrameworkConfig{
		Seed: 1, Train: ml.TrainConfig{Epochs: 2},
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := quant.FrameworkConfig{Seed: 1, Train: ml.TrainConfig{Epochs: 1}}
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := cfg
			c.Train.Seed = int64(i + 1)
			if _, _, err := quant.TrainFrameworkE(ds, c, quant.WithWarmStart(incumbent)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := cfg
			c.Train.Seed = int64(i + 1)
			if _, _, err := quant.TrainFrameworkE(ds, c); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLabeler measures baseline matching over 10k records.
func BenchmarkLabeler(b *testing.B) {
	recs := syntheticRecords(10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := label.New(recs, sim.Second, 3)
		if len(l.Degradations(recs)) == 0 {
			b.Fatal("no windows")
		}
	}
}

func syntheticDataset(n int) *dataset.Dataset {
	names := make([]string, 34)
	for i := range names {
		names[i] = "f"
	}
	ds := dataset.New(names, 7, 2)
	rng := sim.NewRNG(3)
	for i := 0; i < n; i++ {
		vecs := make([][]float64, 7)
		for t := range vecs {
			v := make([]float64, 34)
			for f := range v {
				v[f] = rng.NormFloat64()
			}
			vecs[t] = v
		}
		ds.Add(&dataset.Sample{Label: i % 2, Degradation: 1, Vectors: vecs})
	}
	return ds
}

func syntheticRecords(n int) []workload.Record {
	rng := sim.NewRNG(9)
	recs := make([]workload.Record, n)
	for i := range recs {
		start := sim.Time(i) * 3 * sim.Millisecond
		recs[i] = workload.Record{
			Rank: i % 4, Seq: i / 4,
			Op:    workload.Op{Kind: workload.Read, Size: 1 << 20},
			Start: start,
			End:   start + sim.Time(rng.Intn(10)+1)*sim.Millisecond,
		}
	}
	return recs
}

// BenchmarkPhaseStudy regenerates the §II-A multi-phase slowdown study.
func BenchmarkPhaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.PhaseStudy(experiments.PhaseStudyConfig{
			Scale: benchScale, Instances: 2,
		})
		if len(r.Phases) != 7 {
			b.Fatal("bad phases")
		}
	}
}

// BenchmarkPolicyDecide measures one mitigation-policy decision per window —
// the per-window cost a live controller pays on the actuation hot path. The
// observation stream alternates clean/hot windows with a forecast attached,
// exercising the hysteresis state machine in both directions.
func BenchmarkPolicyDecide(b *testing.B) {
	obs := make([]mitigate.Observation, 8)
	for i := range obs {
		obs[i] = mitigate.Observation{Class: (i + 1) % 2}
		if i%3 == 0 {
			obs[i].Forecast = &forecast.Prediction{
				Horizons: []int{1, 2}, Classes: []int{1, 0},
				Probs: [][]float64{{0.1, 0.9}, {0.6, 0.4}}, LeadWindows: 1,
			}
		}
	}
	mk := map[string]func() *mitigate.Policy{
		"reactive":  mitigate.NewReactiveThrottle,
		"proactive": mitigate.NewProactiveThrottle,
		"defer":     mitigate.NewDeferBurst,
	}
	for _, name := range []string{"reactive", "proactive", "defer"} {
		p := mk[name]()
		b.Run(name, func(b *testing.B) {
			engaged := 0
			for i := 0; i < b.N; i++ {
				if v := p.Decide(obs[i%len(obs)]); v.Throttle || v.Defer {
					engaged++
				}
			}
			if engaged == 0 {
				b.Fatal("policy never engaged")
			}
		})
	}
}

// BenchmarkBurstBufferWrite measures the burst-buffer absorb path.
func BenchmarkBurstBufferWrite(b *testing.B) {
	cl := quant.NewCluster(quant.PaperProfile())
	eng, fs := cl.Eng, cl.FS
	buf := bb.Attach(eng, fs.Client("c0"), hw.BurstBufferConfig{CapacityBytes: 1 << 30})
	var h *lustre.Handle
	fs.Client("c0").Create("/bench-bb", 1, func(hh *lustre.Handle) { h = hh })
	eng.Run()
	b.ResetTimer()
	done := 0
	for i := 0; i < b.N; i++ {
		buf.Write(h, int64(i%512)<<20, 1<<20, func() { done++ })
		eng.Run()
	}
	if done != b.N {
		b.Fatal("lost writes")
	}
}

// BenchmarkTraceRoundTrip measures DXT log encode+decode of 1k records.
func BenchmarkTraceRoundTrip(b *testing.B) {
	recs := syntheticRecords(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf strings.Builder
		w := trace.NewWriter(&buf)
		for _, rec := range recs {
			w.Write(rec)
		}
		if w.Flush() != nil {
			b.Fatal("write failed")
		}
		got, err := trace.Read(strings.NewReader(buf.String()))
		if err != nil || len(got) != 1000 {
			b.Fatal("read failed")
		}
	}
}
