package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"quanterference/internal/hw"
)

func tinyLeadTimeConfig() LeadTimeConfig {
	return LeadTimeConfig{
		Scale:    0.08,
		Reps:     1,
		Epochs:   6,
		Seed:     3,
		History:  3,
		Horizons: []int{1, 2, 4},
	}
}

// TestLeadTimeCurves runs the study at smoke scale and checks the curve's
// shape: every horizon produces lead-labeled samples and a real accuracy,
// and the near-term forecast (k=1) lands within 10 points of the
// current-window classifier — the acceptance bar for "forecasting is nearly
// as good as nowcasting one window out".
func TestLeadTimeCurves(t *testing.T) {
	r := LeadTimeStudy(tinyLeadTimeConfig())
	if len(r.Profiles) != 1 || r.Profiles[0] != "paper" {
		t.Fatalf("profiles %v", r.Profiles)
	}
	if len(r.Horizons) != 3 {
		t.Fatalf("horizons %v", r.Horizons)
	}
	if r.Baseline[0] <= 0.5 {
		t.Fatalf("baseline classifier accuracy %.3f — dataset degenerate", r.Baseline[0])
	}
	for j, k := range r.Horizons {
		if r.LaggedSamples[0][j] == 0 {
			t.Fatalf("horizon %d has no lead-labeled samples", k)
		}
		if a := r.Accuracy[0][j]; a <= 0 || a > 1 {
			t.Fatalf("horizon %d accuracy %.3f", k, a)
		}
	}
	if d := r.Delta(0, 0); d < -0.10 {
		t.Fatalf("k=1 forecast accuracy %.3f is %.3f below the %.3f baseline (>10 points)",
			r.Accuracy[0][0], -d, r.Baseline[0])
	}

	out := r.Table().Render()
	for _, want := range []string{"Forecast lead time", "delta_vs_now", "alarm_precision", "digest"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	csv := r.Table().CSV()
	if !strings.HasPrefix(csv, "profile,horizon,samples,accuracy,delta_vs_now,alarm_precision,alarm_recall\n") {
		t.Fatalf("csv header wrong:\n%s", csv)
	}
	if !strings.Contains(csv, "digest,paper,") {
		t.Fatalf("csv missing weights digest:\n%s", csv)
	}
}

// TestLeadTimeDeterministic is the determinism pin: two same-seed runs must
// agree bit for bit — identical CSV (every accuracy) and identical forecaster
// weight digests — and match the committed golden. Refresh with
// UPDATE_GOLDEN=1 go test ./internal/experiments -run TestLeadTimeDeterministic.
func TestLeadTimeDeterministic(t *testing.T) {
	r1 := LeadTimeStudy(tinyLeadTimeConfig())
	r2 := LeadTimeStudy(tinyLeadTimeConfig())
	csv1, csv2 := r1.Table().CSV(), r2.Table().CSV()
	if csv1 != csv2 {
		t.Fatalf("same-seed runs diverged:\n--- run 1\n%s\n--- run 2\n%s", csv1, csv2)
	}
	if r1.WeightsDigest[0] != r2.WeightsDigest[0] {
		t.Fatalf("forecaster weights diverged: %s vs %s", r1.WeightsDigest[0], r2.WeightsDigest[0])
	}

	golden := filepath.Join("testdata", "leadtime_golden.csv")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(csv1), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (refresh with UPDATE_GOLDEN=1): %v", err)
	}
	if string(want) != csv1 {
		t.Fatalf("leadtime curves drifted from golden (refresh with UPDATE_GOLDEN=1 if intended):\n--- golden\n%s\n--- got\n%s", want, csv1)
	}
}

// TestLeadTimeEveryProfile runs the study at smoke scale, at the default
// history and horizons, on every hardware profile: no profile may fail the
// study, every horizon is either trained or reported as skipped, and a
// horizon is skipped exactly when it has no lead-labeled window.
func TestLeadTimeEveryProfile(t *testing.T) {
	cfg := tinyLeadTimeConfig()
	cfg.History, cfg.Horizons = 0, nil
	cfg.Profiles = hw.Names()
	r := LeadTimeStudy(cfg)
	csv := r.Table().CSV()
	t.Logf("\n%s", csv)
	for i, p := range r.Profiles {
		if r.Samples[i] == 0 || r.Baseline[i] < 0 || r.Baseline[i] > 1 {
			t.Errorf("%s: %d windows, baseline accuracy %.3f", p, r.Samples[i], r.Baseline[i])
		}
		for j, k := range r.Horizons {
			if r.Skipped[i][j] != (r.LaggedSamples[i][j] == 0) {
				t.Errorf("%s +%dw: skipped %v with %d lead-labeled samples", p, k, r.Skipped[i][j], r.LaggedSamples[i][j])
			}
			if r.Skipped[i][j] {
				t.Logf("%s +%dw skipped", p, k)
				if !strings.Contains(csv, fmt.Sprintf("%s,%d,0,skipped,,,\n", p, k)) {
					t.Errorf("%s +%dw skipped but not reported as such:\n%s", p, k, csv)
				}
			} else if a := r.Accuracy[i][j]; a <= 0 || a > 1 {
				t.Errorf("%s +%dw accuracy %.3f", p, k, a)
			}
		}
	}
}

// TestLeadTimeReportsSkippedHorizons pins how a skipped horizon renders: a
// "skipped" row in the table and in the CSV, no accuracy or delta, and the
// reason in the text.
func TestLeadTimeReportsSkippedHorizons(t *testing.T) {
	r := &LeadTimeResult{
		Profiles: []string{"nvme"}, History: 4, Horizons: []int{1, 2},
		Samples: []int{88}, LaggedSamples: [][]int{{12, 0}}, Skipped: [][]bool{{false, true}},
		Baseline: []float64{0.9}, Accuracy: [][]float64{{0.8, 0}},
		AlarmPrecision: [][]float64{{1, 0}}, AlarmRecall: [][]float64{{0.5, 0}},
		WeightsDigest: []string{"abc"},
	}
	wantCSV := "profile,horizon,samples,accuracy,delta_vs_now,alarm_precision,alarm_recall\n" +
		"nvme,0,88,0.9000,0.0000,,\n" +
		"nvme,1,12,0.8000,-0.1000,1.0000,0.5000\n" +
		"nvme,2,0,skipped,,,\n" +
		"digest,nvme,abc\n"
	if got := r.Table().CSV(); got != wantCSV {
		t.Fatalf("CSV:\n%s\nwant:\n%s", got, wantCSV)
	}
	out := r.Table().Render()
	if !regexp.MustCompile(`(?m)^nvme +2 +0 +skipped$`).MatchString(out) ||
		!strings.Contains(out, "+2w skipped: no run spans 6 windows") {
		t.Fatalf("render does not report the skipped horizon and why:\n%s", out)
	}
}
