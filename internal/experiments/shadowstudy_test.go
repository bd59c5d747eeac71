package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// TestShadowStudy runs the study at smoke scale and checks its shape: the
// convergence table covers every candidate at every snapshot, accuracies are
// cumulative live scores in [0,1], the deepest challenger is scored on the
// same sample count as the champion, and its table carries the verdict.
func TestShadowStudy(t *testing.T) {
	ds := IO500Dataset(DatasetConfig{Scale: 0.25, Seed: 31})
	cfg := ShadowStudyConfig{Seed: 31}
	r := ShadowStudy(ds, cfg)

	if len(r.Names) != 4 || r.Names[0] != "champion" {
		t.Fatalf("candidates %v", r.Names)
	}
	if r.TrainSamples+r.StreamSamples != ds.Len() || r.StreamSamples == 0 {
		t.Fatalf("split %d+%d of %d", r.TrainSamples, r.StreamSamples, ds.Len())
	}
	if len(r.SnapshotAt) == 0 || r.SnapshotAt[len(r.SnapshotAt)-1] != r.StreamSamples {
		t.Fatalf("snapshots %v never reach the stream end %d", r.SnapshotAt, r.StreamSamples)
	}
	for i, row := range r.Accuracy {
		if len(row) != len(r.Names) {
			t.Fatalf("snapshot %d has %d columns, want %d", i, len(row), len(r.Names))
		}
		for j, a := range row {
			if a < 0 || a > 1 {
				t.Fatalf("snapshot %d candidate %s accuracy %.3f", i, r.Names[j], a)
			}
		}
	}
	// The stream clears the gate's 32-sample minimum and scores the winner on
	// all of it, so the verdict is the gate's call, not a lack of evidence.
	if r.StreamSamples < 32 || r.Verdict.Samples != r.StreamSamples {
		t.Fatalf("gate decided on %d of %d stream samples", r.Verdict.Samples, r.StreamSamples)
	}
	if r.Verdict.Promote && r.Winner == "" {
		t.Fatalf("promoting verdict without a winner: %+v", r.Verdict)
	}

	out := r.Table().Render()
	for _, want := range []string{"Shadow evaluation", "champion", "c1", "labeled", "verdict:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	csv := r.Table().CSV()
	if !strings.HasPrefix(csv, "labeled,candidate,epochs,accuracy\n") {
		t.Fatalf("csv header wrong:\n%s", csv)
	}
	if !strings.Contains(csv, "digest,champion,") || !strings.Contains(csv, "verdict,") {
		t.Fatalf("csv missing digest/verdict rows:\n%s", csv)
	}
}

// TestShadowStudyDeterministic pins the whole result — digests, snapshot
// accuracies, verdict — across two same-seed runs.
func TestShadowStudyDeterministic(t *testing.T) {
	ds := IO500Dataset(DatasetConfig{Scale: 0.25, Seed: 32})
	cfg := ShadowStudyConfig{Seed: 32}
	r1 := ShadowStudy(ds, cfg)
	r2 := ShadowStudy(ds, cfg)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("same-seed shadow studies diverged:\n%+v\n%+v", r1, r2)
	}
}
