package registry

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quanterference/internal/workload"
)

// opStreamDigest hashes every field of every op in one rank's stream.
func opStreamDigest(ops []workload.Op) string {
	h := sha256.New()
	for _, op := range ops {
		fmt.Fprintf(h, "%d %q %d %d %d %d\n", op.Kind, op.Path, op.Offset, op.Size, op.StripeCount, op.Dur)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestOpStreamDigests pins the op stream of every rank of every named
// workload, at the default spec (one rank) and at three ranks, against the
// committed digests, so a change to a generator's sizes, order or paths
// shows here and not only in the datasets built from it. Regenerate with
// UPDATE_GOLDEN=1 go test -run TestOpStreamDigests
// ./internal/workload/registry — only for a deliberate generator change.
func TestOpStreamDigests(t *testing.T) {
	var got []string
	for _, spec := range []Spec{{}, {Ranks: 3}} {
		ranks := max(spec.Ranks, 1)
		for _, name := range Names() {
			gen, err := Resolve(name, spec)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < ranks; r++ {
				ops := gen.Ops(r)
				got = append(got, fmt.Sprintf("%s ranks=%d rank=%d ops=%d %s",
					name, ranks, r, len(ops), opStreamDigest(ops)))
			}
		}
	}
	path := filepath.Join("testdata", "opstreams_golden.txt")
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
			t.Errorf("line %d:\n got  %q\n want %q", i+1, g, w)
		}
	}
}
