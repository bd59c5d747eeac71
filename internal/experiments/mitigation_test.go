package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// tinyMitigationConfig MUST stay in lockstep with the `make mitigate-smoke`
// flags (cmd/figures -only mitigation -scale 0.08 -epochs 6 -seed 3): the
// smoke target compares the figures CSV byte-for-byte against the same
// golden this test pins.
func tinyMitigationConfig() MitigationConfig {
	return MitigationConfig{
		Scale:  0.08,
		Reps:   1,
		Epochs: 6,
		Seed:   3,
	}
}

// tinyMitigationStudy caches one study run for the whole package: the shape
// and determinism tests both inspect it, and only the determinism test pays
// for a second, fresh run to compare against. A full study is ~60 simulated
// scenarios plus training, which matters under -race.
var tinyMitigationStudy = sync.OnceValue(func() *MitigationResult {
	return MitigationStudy(tinyMitigationConfig())
})

// TestMitigationStudyShape runs the matrix at smoke scale and checks its
// structure and the study's acceptance bar: every fault×mix cell has all
// six policy rows, the policies actually engage somewhere, and the
// forecast-driven proactive policy achieves at least the reactive policy's
// slowdown-avoided on at least one cell. It also checks what the mechanism
// rows claim: on the bandwidth mixes an always-on throttle helps the target
// but the reactive policy leaves the background workloads more of their
// work; a bandwidth cap cannot touch a metadata storm; and the burst buffer
// still holds protected data when the target finishes.
func TestMitigationStudyShape(t *testing.T) {
	r := tinyMitigationStudy()
	if len(r.Faults) != 3 || len(r.Mixes) != 3 || len(r.Policies) != 6 {
		t.Fatalf("matrix shape %v × %v × %v", r.Faults, r.Mixes, r.Policies)
	}
	if want := len(r.Faults) * len(r.Mixes) * len(r.Policies); len(r.Cells) != want {
		t.Fatalf("cells %d, want %d", len(r.Cells), want)
	}
	engagedSomewhere := false
	for _, f := range r.Faults {
		for _, m := range r.Mixes {
			for _, p := range r.Policies {
				c := r.Cell(f, m, p)
				if c == nil {
					t.Fatalf("missing cell %s×%s×%s", f, m, p)
				}
				if c.TargetDuration <= 0 {
					t.Fatalf("cell %s×%s×%s has no target duration", f, m, p)
				}
				if c.Slowdown < 0.99 {
					t.Fatalf("cell %s×%s×%s slowdown %.3f < 1 — alone reference suspect", f, m, p, c.Slowdown)
				}
				if p == "none" && (c.Engagements != 0 || c.Avoided != 0) {
					t.Fatalf("no-action cell %s×%s actuated: %+v", f, m, c)
				}
				if c.Engagements > 0 {
					engagedSomewhere = true
				}
				if p == "burst-buffer" && c.DeferredMB <= 0 {
					t.Fatalf("burst-buffer cell %s×%s deferred nothing: %+v", f, m, c)
				}
			}
			none, reactive, static := r.Cell(f, m, "none"), r.Cell(f, m, "reactive"), r.Cell(f, m, "static")
			if m == "meta-storm" {
				if static.TargetDuration != none.TargetDuration || static.InterferenceMB != none.InterferenceMB {
					t.Fatalf("static throttle moved the metadata cell %s×%s: %+v vs none %+v", f, m, static, none)
				}
				continue
			}
			if static.Avoided <= 0 {
				t.Fatalf("static throttle avoided no slowdown on %s×%s: %+v", f, m, static)
			}
			if reactive.InterferenceMB <= static.InterferenceMB {
				t.Fatalf("reactive (%.1f MB) kept no more interference work than static (%.1f MB) on %s×%s",
					reactive.InterferenceMB, static.InterferenceMB, f, m)
			}
		}
	}
	if !engagedSomewhere {
		t.Fatal("no policy engaged on any cell — controller wiring dead")
	}
	if !r.ProactiveMatchesReactive() {
		t.Fatal("proactive policy never matched reactive slowdown-avoided on any cell")
	}

	out := r.Table().Render()
	for _, want := range []string{"Mitigation policy", "none", "reactive", "proactive", "defer", "static", "burst-buffer", "avoided"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestMitigationDeterministic pins bit-identical same-seed CSVs and the
// committed golden. Refresh with
// UPDATE_GOLDEN=1 go test ./internal/experiments -run TestMitigationDeterministic.
func TestMitigationDeterministic(t *testing.T) {
	r1 := tinyMitigationStudy()
	r2 := MitigationStudy(tinyMitigationConfig())
	csv1, csv2 := r1.Table().CSV(), r2.Table().CSV()
	if csv1 != csv2 {
		t.Fatalf("same-seed runs diverged:\n--- run 1\n%s\n--- run 2\n%s", csv1, csv2)
	}
	if !strings.HasPrefix(csv1, "fault,mix,policy,alone_s,target_s,slowdown,avoided,interference_mb,cost_pct,engagements,windows_throttled,deferred_mb\n") {
		t.Fatalf("csv header wrong:\n%s", csv1)
	}

	golden := filepath.Join("testdata", "mitigation_golden.csv")
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
		t.Fatalf("mitigation matrix drifted from golden (refresh with UPDATE_GOLDEN=1 if intended):\n--- golden\n%s\n--- got\n%s", want, csv1)
	}
}
