package main

import (
	"fmt"
	"reflect"
	"time"

	"quanterference/internal/core"
	"quanterference/internal/dataset"
	"quanterference/internal/experiments"
	"quanterference/internal/hw"
	"quanterference/internal/label"
	"quanterference/internal/ml"
	"quanterference/internal/monitor/window"
	"quanterference/internal/obs"
	"quanterference/internal/sim"
	"quanterference/internal/workload/io500"
)

// Figure 3(a) at the cmd/figures defaults. The simulation does not depend on
// the seed, so the dataset digest is pinned for every seed; the seed picks
// the train/test split and the training order, so the confusion matrix is
// pinned for the paper seed only. The committed out/fig3a.txt (n=811, cells
// 40/3/2/117) predates later simulator changes; these are the values the
// current code produces.
const (
	studyScale   = 1.0
	studyReps    = 3
	studyEpochs  = 60
	studyDigest  = "1daec6c211726e66"
	studySamples = 814
	paperSeed    = 42

	// warmScale is the small study setup runs, so the measured studies
	// start with a grown heap and warm code.
	warmScale  = 0.08
	warmDigest = "528b1f5caf2a271f"
)

var studyConfusion = [][]int{{47, 1}, {1, 114}}

// studyWorkload is the paper's headline journey: collect IO500 windows
// against the interference sweep, train the kernel model, and evaluate it
// on the held-out split.
type studyWorkload struct {
	seed int64
}

// studyResult is one study's output and timing.
type studyResult struct {
	ds                   *dataset.Dataset
	cm                   *ml.Confusion
	collect, train, eval time.Duration
	collectCPU           time.Duration
}

// collectIO500 is experiments.IO500Dataset with each core.CollectDatasetE
// call timed: for every IO500 task and rep, the target against
// experiments.InterferenceSweep, with the OST layout rotated per rep.
func collectIO500(scale experiments.Scale, res *studyResult, opts ...core.Option) error {
	variants := experiments.InterferenceSweep(scale)
	for _, task := range io500.AllTasks() {
		p := io500.Params{
			Dir:           "/tgt-" + task.String(),
			Ranks:         4,
			EasyFileBytes: scale.Bytes(32 << 20),
			HardOps:       scale.Count(300),
			MdtFiles:      scale.Count(200),
		}
		target := core.TargetSpec{Gen: io500.New(task, p), Nodes: []string{"c0", "c1"}, Ranks: 4}
		for rep := 0; rep < studyReps; rep++ {
			base := core.Scenario{
				Hardware:   hw.PaperProfile(),
				Target:     target,
				WindowSize: sim.Second,
				MaxTime:    240 * sim.Second,
				OSTSkew:    rep,
			}
			t, cpu := time.Now(), cpuTime()
			ds, err := core.CollectDatasetE(base, variants, core.CollectorConfig{
				Bins:            label.BinaryBins(),
				IncludeBaseline: rep == 0,
			}, opts...)
			res.collect += time.Since(t)
			res.collectCPU += cpuTime() - cpu
			if err != nil {
				return fmt.Errorf("collect %s rep %d: %w", task, rep, err)
			}
			for _, s := range ds.Samples {
				s.Workload = task.String()
				s.Run = fmt.Sprintf("%s#%d", s.Run, rep)
			}
			if res.ds == nil {
				res.ds = ds
			} else {
				res.ds.Merge(ds)
			}
		}
	}
	return nil
}

// runStudy is experiments.Figure3a's pipeline with each layer's entry point
// timed: collectIO500, then core.TrainFrameworkE, then the held-out split
// classified with Framework.PredictBatch.
func runStudy(scale experiments.Scale, seed int64, epochs int, opts ...core.Option) (*studyResult, error) {
	res := &studyResult{}
	if err := collectIO500(scale, res, opts...); err != nil {
		return nil, err
	}

	t := time.Now()
	fw, cm, err := core.TrainFrameworkE(res.ds, core.FrameworkConfig{
		Bins: label.BinaryBins(), Seed: seed,
		Train: ml.TrainConfig{Epochs: epochs, Seed: seed},
	})
	res.train = time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	res.cm = cm

	// TrainFrameworkE evaluates on the same seeded split; classifying the
	// raw held-out windows through the serving path must agree with it.
	t = time.Now()
	_, test := res.ds.Split(0.2, seed^0x5717)
	mats := make([]window.Matrix, test.Len())
	for i, s := range test.Samples {
		mats[i] = s.Vectors
	}
	cls, _ := fw.PredictBatch(mats)
	got := ml.NewConfusion(test.Classes)
	for i, s := range test.Samples {
		got.Add(s.Label, cls[i])
	}
	res.eval = time.Since(t)
	if !reflect.DeepEqual(got.M, cm.M) {
		return nil, fmt.Errorf("PredictBatch confusion %v differs from training evaluation %v", got.M, cm.M)
	}
	return res, nil
}

func (w *studyWorkload) setup(seed int64) error {
	w.seed = seed
	warm, err := runStudy(warmScale, seed, studyEpochs)
	if err != nil {
		return err
	}
	if d := warm.ds.Digest(); d != warmDigest {
		return fmt.Errorf("warm-up study dataset digest %s, want %s", d, warmDigest)
	}
	return nil
}

func (w *studyWorkload) measure(budget time.Duration, traced bool) (*phase, error) {
	ph := &phase{layers: map[string]float64{}}
	var sink *obs.Sink
	var opts []core.Option
	if traced {
		sink = obs.New()
		opts = append(opts, core.WithSink(sink))
	}
	var collect, train, eval, util []float64
	var collectCPU float64
	var first *studyResult
	start := time.Now()
	for time.Since(start) < budget || ph.attempted == 0 {
		ph.attempted++
		t := time.Now()
		res, err := runStudy(studyScale, w.seed, studyEpochs, opts...)
		if err != nil {
			ph.fail(err)
			continue
		}
		ph.lat = append(ph.lat, ms(time.Since(t)))
		ph.ops++
		collect = append(collect, res.collect.Seconds())
		train = append(train, res.train.Seconds())
		eval = append(eval, res.eval.Seconds())
		util = append(util, ratio(res.collectCPU.Seconds(), 2*res.collect.Seconds()))
		collectCPU += res.collectCPU.Seconds()
		if err := w.checkStudy(res); err != nil {
			ph.fail(err)
		} else if first != nil && !reflect.DeepEqual(res.cm.M, first.cm.M) {
			ph.fail(fmt.Errorf("study %d confusion %v differs from the first study's %v", ph.attempted, res.cm.M, first.cm.M))
		}
		if first == nil {
			first = res
		}
	}
	ph.elapsed = time.Since(start)
	if !traced || ph.ops == 0 {
		return ph, nil
	}

	snap := sink.Snapshot()
	n := float64(ph.ops)
	events := float64(snap.CounterTotal("engine", "events_executed"))
	flows := float64(snap.CounterTotal("netsim", "flows"))
	raHit := float64(snap.CounterTotal("client", "ra_hits"))
	raAll := raHit + float64(snap.CounterTotal("client", "ra_waits")+snap.CounterTotal("client", "ra_misses"))
	mdsHit := float64(snap.CounterTotal("mds", "cache_hits"))
	diskReq := float64(snap.CounterTotal("disk", "requests"))
	l := ph.layers
	l["collect.s"] = median(collect)
	l["train.s"] = median(train)
	l["eval.s"] = median(eval)
	l["collect.cpu_util"] = median(util)
	l["engine.events"] = events / n
	l["engine.ns_per_event"] = ratio(collectCPU*1e9, events)
	l["netsim.flows"] = flows / n
	l["netsim.recomputes_per_flow"] = ratio(float64(snap.CounterTotal("netsim", "fair_share_recomputes")), flows)
	l["lustre.ra_hit_frac"] = ratio(raHit, raAll)
	l["lustre.ost_throttled_frac"] = ratio(float64(snap.CounterTotal("ost", "writes_throttled")), float64(snap.CounterTotal("ost", "writes_admitted")))
	l["lustre.mds_hit_frac"] = ratio(mdsHit, mdsHit+float64(snap.CounterTotal("mds", "cache_misses")))
	l["blockqueue.merge_frac"] = ratio(float64(snap.CounterTotal("blockqueue", "merges")), float64(snap.CounterTotal("blockqueue", "submits")))
	l["disk.requests"] = diskReq / n
	l["disk.seq_frac"] = ratio(float64(snap.CounterTotal("disk", "seq_requests")), diskReq)
	train80 := float64(first.ds.Len()) * 0.8
	l["train.sample_epochs_per_s"] = ratio(train80*studyEpochs, median(train))
	return ph, nil
}

// checkStudy compares one study's output with the pinned values.
func (w *studyWorkload) checkStudy(res *studyResult) error {
	if d := res.ds.Digest(); d != studyDigest || res.ds.Len() != studySamples {
		return fmt.Errorf("dataset digest %s with %d samples, want %s with %d", d, res.ds.Len(), studyDigest, studySamples)
	}
	if w.seed == paperSeed && !reflect.DeepEqual(res.cm.M, studyConfusion) {
		return fmt.Errorf("held-out confusion %v, want %v", res.cm.M, studyConfusion)
	}
	if acc := res.cm.Accuracy(); acc < 0.9 {
		return fmt.Errorf("held-out accuracy %.3f below the paper's 0.90", acc)
	}
	return nil
}

func (w *studyWorkload) close() {}
