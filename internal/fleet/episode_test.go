package fleet

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"
)

// The episodes run at quantfleet's flag defaults (seed 1, 24 requests),
// which is what make fleet-smoke and make shadow-smoke pass; those targets
// also compare two processes with each other. After a deliberate change,
// refresh a golden with
// go run ./cmd/quantfleet -smoke > internal/fleet/testdata/smoke_golden.txt
// (or -shadow > internal/fleet/testdata/shadow_golden.txt).

func TestSmokeEpisodeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := SmokeEpisode(context.Background(), &buf, 1, 24); err != nil {
		t.Fatalf("smoke episode: %v\n%s", err, buf.String())
	}
	compareGolden(t, "testdata/smoke_golden.txt", buf.String())
}

func TestShadowEpisodeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := ShadowEpisode(context.Background(), &buf, 1); err != nil {
		t.Fatalf("shadow episode: %v\n%s", err, buf.String())
	}
	compareGolden(t, "testdata/shadow_golden.txt", buf.String())
}

// compareGolden fails at the first line where got differs from the golden.
func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: line %d is %q, want %q", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: output has %d lines, want %d", path, len(gl), len(wl))
}
