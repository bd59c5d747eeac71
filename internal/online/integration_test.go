package online

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"quanterference/internal/ml"
)

// TestSmokeEpisodeEndToEnd runs the full continuous-learning episode twice
// with the same seed and pins the whole contract at once:
//
//   - the healthy stream trips nothing (asserted inside SmokeEpisode);
//   - the fault-injected stream trips drift, retrains, and promotes through
//     the server's hot-reload while concurrent clients keep predicting with
//     zero hard failures;
//   - the forced-reject phase trains a candidate, rejects it, and leaves
//     the served framework untouched (rollback);
//   - both runs make identical drift decisions and promote bit-identical
//     weights (run under -race this also exercises the loop/server
//     concurrency boundary);
//   - the first run's timeline and promoted-weight digest match
//     testdata/smoke_timeline_golden.txt byte for byte. These are the
//     Decision.String lines quantonline -smoke prints and quantbench's
//     online-retrain replay hashes. Refresh with UPDATE_GOLDEN=1 go test
//     ./internal/online -run TestSmokeEpisodeEndToEnd, only for a
//     deliberate change to the loop, the trainer or the simulator.
func TestSmokeEpisodeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full episode in -short mode")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	run := func() *SmokeResult {
		t.Helper()
		res, err := SmokeEpisode(ctx, SmokeConfig{Seed: 42, Log: t.Logf})
		if err != nil {
			t.Fatalf("smoke episode: %v (timeline so far: %v)", err, res)
		}
		return res
	}
	a := run()
	compareTimelineGolden(t, a)

	if a.Promotions == 0 {
		t.Fatal("no promotions")
	}
	if a.Rejections == 0 {
		t.Fatal("no rejections")
	}
	if a.Retrains != a.DriftTrips || a.Retrains < a.Promotions+a.Rejections {
		t.Fatalf("inconsistent counts: %+v", a)
	}
	if a.HammerErr != 0 {
		t.Fatalf("%d concurrent predictions failed hard during hot-reloads", a.HammerErr)
	}
	if a.HammerOK == 0 {
		t.Fatal("no concurrent predictions answered during hot-reloads")
	}
	if len(a.PromotedWeights) == 0 {
		t.Fatal("no promoted weight snapshot")
	}
	if a.TrainAccuracy < 0.7 {
		t.Fatalf("incumbent too weak to make the episode meaningful: %.3f", a.TrainAccuracy)
	}

	b := run()
	if !reflect.DeepEqual(a.Timeline, b.Timeline) {
		t.Fatalf("same-seed decision timelines diverged:\n%v\n%v", a.Timeline, b.Timeline)
	}
	if !reflect.DeepEqual(a.PromotedWeights, b.PromotedWeights) {
		t.Fatal("same-seed promoted weights diverged")
	}
	if a.Promotions != b.Promotions || a.Rejections != b.Rejections || a.Rollbacks != b.Rollbacks {
		t.Fatalf("same-seed counts diverged: %+v vs %+v", a, b)
	}
}

// compareTimelineGolden checks res's timeline, one line per decision, and
// the digest of its promoted weights against the committed golden.
func compareTimelineGolden(t *testing.T, res *SmokeResult) {
	t.Helper()
	got := append(append([]string(nil), res.Timeline...), "promoted "+ml.WeightsDigest(res.PromotedWeights))
	path := filepath.Join("testdata", "smoke_timeline_golden.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	lines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for i := range max(len(got), len(lines)) {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(lines) {
			w = lines[i]
		}
		if g != w {
			t.Fatalf("%s: line %d:\n got  %q\n want %q", path, i+1, g, w)
		}
	}
}
