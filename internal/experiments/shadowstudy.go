package experiments

import (
	"fmt"

	"quanterference/internal/core"
	"quanterference/internal/dataset"
	"quanterference/internal/ml"
	"quanterference/internal/monitor/window"
	"quanterference/internal/shadow"
)

// ShadowStudyConfig controls the shadow-evaluation study: how quickly the
// N-way champion/challenger gate (internal/shadow) separates candidates of
// different quality on a live labeled stream, and where the verdict lands.
// The gate is the shadow evaluator's own: 32 labeled samples and a 0.01
// accuracy lead before a challenger may promote.
type ShadowStudyConfig struct {
	Seed int64
}

// shadowSnapshots is how many evenly spaced scoreboard snapshots the study
// records over the stream; the last snapshot is the final state.
const shadowSnapshots = 4

// shadowChampionEpochs trains the serving champion: deliberately
// undertrained, the model a fleet would want to replace.
const shadowChampionEpochs = 2

// shadowChallengerEpochs trains one challenger per entry; challengers are
// named c0, c1, ... in this order.
var shadowChallengerEpochs = []int{4, 16, 8}

// ShadowStudyResult holds the convergence table and the final verdict.
type ShadowStudyResult struct {
	// Names are the candidates in column order: "champion" first, then the
	// challengers; Epochs is each one's training depth and Digests its
	// bit-exact weight identity (checkable against a live /v1/healthz).
	Names   []string
	Epochs  []int
	Digests []string
	// TrainSamples and StreamSamples split the corpus: candidates train on
	// the former, the gate scores them on the latter.
	TrainSamples  int
	StreamSamples int
	// SnapshotAt[i] is the labeled-sample count of snapshot i;
	// Accuracy[i][j] is candidate j's cumulative live accuracy there.
	SnapshotAt []int
	Accuracy   [][]float64
	// FinalCE is each candidate's mean cross-entropy at stream end.
	FinalCE []float64
	// Verdict is the gate's final decision; Winner is "" when the champion
	// kept its seat.
	Verdict shadow.GateResult
	Winner  string
}

// ShadowStudy replays a labeled window stream through a shadow evaluator —
// the study stands in for the serving layer, predicting the champion's class
// for each window before mirroring it — and records how the scoreboard
// separates candidates as labels accumulate. The stream is the held-out
// quarter of the corpus (every 4th sample), so no candidate is scored on
// traffic it trained on.
func ShadowStudy(ds *dataset.Dataset, cfg ShadowStudyConfig) *ShadowStudyResult {
	train := dataset.New(ds.FeatureNames, ds.NTargets, ds.Classes)
	stream := dataset.New(ds.FeatureNames, ds.NTargets, ds.Classes)
	for i, s := range ds.Samples {
		if i%4 == 3 {
			stream.Add(s)
		} else {
			train.Add(s)
		}
	}

	res := &ShadowStudyResult{
		Names:         []string{"champion"},
		Epochs:        []int{shadowChampionEpochs},
		TrainSamples:  train.Len(),
		StreamSamples: stream.Len(),
	}
	champion := trainCandidate(train, cfg.Seed, shadowChampionEpochs)
	res.Digests = []string{ml.WeightsDigest(champion.ExportWeights())}

	ev, err := shadow.New(champion, shadow.Config{Seed: cfg.Seed, QueueCap: stream.Len() + 1})
	if err != nil {
		panic(fmt.Sprintf("experiments: shadow evaluator: %v", err))
	}
	for i, epochs := range shadowChallengerEpochs {
		name := fmt.Sprintf("c%d", i)
		cand := trainCandidate(train, cfg.Seed+int64(i)+1, epochs)
		if err := ev.AddChallenger(name, cand); err != nil {
			panic(fmt.Sprintf("experiments: shadow challenger %s: %v", name, err))
		}
		res.Names = append(res.Names, name)
		res.Epochs = append(res.Epochs, epochs)
		res.Digests = append(res.Digests, ml.WeightsDigest(cand.ExportWeights()))
	}

	// Stream the held-out windows: serve (predict), mirror, then join the
	// label — the same order the live tap sees. Snapshot the scoreboard at
	// evenly spaced labeled counts.
	snapEvery := stream.Len() / shadowSnapshots
	if snapEvery == 0 {
		snapEvery = 1
	}
	for i, s := range stream.Samples {
		mat := window.Matrix(s.Vectors)
		cls, _ := champion.Predict(mat)
		ev.Mirror(mat, cls)
		if !ev.Label(mat, s.Degradation) {
			panic(fmt.Sprintf("experiments: stream sample %d not joinable", i))
		}
		if (i+1)%snapEvery == 0 || i == stream.Len()-1 {
			st := ev.Status()
			if n := len(res.SnapshotAt); n > 0 && res.SnapshotAt[n-1] == int(st.Labeled) {
				continue // final sample landed exactly on a snapshot boundary
			}
			res.SnapshotAt = append(res.SnapshotAt, int(st.Labeled))
			row := []float64{st.Champion.Accuracy}
			for _, c := range st.Challengers {
				row = append(row, c.Accuracy)
			}
			res.Accuracy = append(res.Accuracy, row)
		}
	}

	st := ev.Status()
	res.FinalCE = []float64{st.Champion.CE}
	for _, c := range st.Challengers {
		res.FinalCE = append(res.FinalCE, c.CE)
	}
	res.Verdict = ev.Verdict()
	res.Winner = res.Verdict.Winner
	return res
}

// trainCandidate trains one candidate at the given depth on the train split.
func trainCandidate(ds *dataset.Dataset, seed int64, epochs int) *core.Framework {
	fw, _, err := core.TrainFrameworkE(ds, core.FrameworkConfig{
		Seed:  seed,
		Train: ml.TrainConfig{Epochs: epochs, Seed: seed},
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: shadow candidate: %v", err))
	}
	return fw
}

// Table lays out one row per (snapshot, candidate) point, then one digest
// row per candidate and the verdict row. The text adds each candidate's
// final cross-entropy and the verdict's margin and sample count.
func (r *ShadowStudyResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Shadow evaluation: %d candidates on %d live windows (%d train)",
			len(r.Names), r.StreamSamples, r.TrainSamples),
		Columns: []Column{{Name: "labeled"}, {Name: "candidate"}, {Name: "epochs"}, {"accuracy", "%.4f"}},
	}
	for i, at := range r.SnapshotAt {
		for j, name := range r.Names {
			t.Rows = append(t.Rows, []any{at, name, r.Epochs[j], r.Accuracy[i][j]})
		}
	}
	ce := "final cross-entropy:"
	for j, name := range r.Names {
		t.Rows = append(t.Rows, []any{"digest", name, r.Epochs[j], r.Digests[j]})
		ce += fmt.Sprintf(" %s %.3f", name, r.FinalCE[j])
	}
	winner := r.Winner
	if winner == "" {
		winner = "champion"
	}
	t.Rows = append(t.Rows, []any{"verdict", winner, r.Verdict.Promote, r.Verdict.CandidateAccuracy})
	verdict := fmt.Sprintf("verdict: keep champion (best challenger %.3f vs %.3f, margin %.3f)",
		r.Verdict.CandidateAccuracy, r.Verdict.IncumbentAccuracy, r.Verdict.Margin)
	if r.Verdict.Promote {
		verdict = fmt.Sprintf("verdict: promote %s (%.3f vs champion %.3f, margin %.3f, n %d)",
			r.Winner, r.Verdict.CandidateAccuracy, r.Verdict.IncumbentAccuracy,
			r.Verdict.Margin, r.Verdict.Samples)
	}
	t.Notes = []string{ce, verdict}
	return t
}
