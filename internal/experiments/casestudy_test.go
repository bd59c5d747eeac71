package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCaseStudyGolden pins the case study's CSV at the cmd/figures defaults
// (scale 1, 60 epochs, seed 42) against the committed golden, which equals
// out/casestudy.csv. It is the only byte-level guard on the reactive
// controller's actuation path. Refresh with
// UPDATE_GOLDEN=1 go test ./internal/experiments -run TestCaseStudyGolden.
func TestCaseStudyGolden(t *testing.T) {
	got := CaseStudyMitigation(CaseStudyConfig{Scale: 1, Epochs: 60, Seed: 42}).CSV()
	golden := filepath.Join("testdata", "casestudy_golden.csv")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (refresh with UPDATE_GOLDEN=1): %v", err)
	}
	if string(want) != got {
		t.Fatalf("case study drifted from golden (refresh with UPDATE_GOLDEN=1 if intended):\n--- golden\n%s\n--- got\n%s", want, got)
	}
}
