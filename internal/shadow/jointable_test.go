package shadow

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quanterference/internal/sim"
)

// TestJoinTableEquivalence pins the label join: one seeded sequence of
// Mirror, Label, Sync and Reset calls over a small matrix pool — so hashes
// repeat, labels miss, and the pending table overflows its 4096-event bound
// and evicts — must reproduce the committed record byte for byte: every
// Label result, each epoch's verdict and Status, and the final Status.
// Mirrored classes are random, so the mismatch count also pins which of a
// hash's pending events each label joins (the oldest unconsumed one).
// Refresh with
// UPDATE_GOLDEN=1 go test ./internal/shadow -run TestJoinTableEquivalence.
func TestJoinTableEquivalence(t *testing.T) {
	champ := trainedFramework(t, 50, 2)
	next := trainedFramework(t, 51, 4)
	challengers := []struct {
		name   string
		seed   int64
		epochs int
	}{{"weak", 53, 1}, {"strong", 54, 6}}
	ev, err := New(champ, Config{Seed: 50})
	if err != nil {
		t.Fatal(err)
	}
	addChallengers := func() {
		for _, c := range challengers {
			if err := ev.AddChallenger(c.name, trainedFramework(t, c.seed, c.epochs)); err != nil {
				t.Fatal(err)
			}
		}
	}
	addChallengers()

	pool, degs := labeledStream(sim.NewRNG(52), 24)
	stray, strayDegs := labeledStream(sim.NewRNG(56), 4) // never mirrored
	rng := sim.NewRNG(55)
	var b strings.Builder
	dump := func(what string, v interface{}) {
		js, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %s\n", what, js)
	}
	// Epoch 1 mirrors five times as often as it labels, so the pending
	// table passes 4096 and evicts; epoch 2 labels more than it mirrors and
	// mixes in never-served matrices, so labels miss.
	phases := []struct {
		calls, mirror, label int // per-100 odds; the rest are Syncs
	}{{8000, 75, 15}, {3000, 40, 50}}
	call := 0
	for p, ph := range phases {
		if p > 0 {
			dump("verdict", ev.Verdict())
			dump("status", ev.Status())
			if err := ev.Reset(next); err != nil {
				t.Fatal(err)
			}
			addChallengers()
		}
		for end := call + ph.calls; call < end; call++ {
			switch r := rng.Intn(100); {
			case r < ph.mirror:
				ev.Mirror(pool[rng.Intn(len(pool))], rng.Intn(2))
			case r < ph.mirror+ph.label:
				if i := rng.Intn(len(pool) + len(stray)); i < len(pool) {
					fmt.Fprintf(&b, "%d label %d %t\n", call, i, ev.Label(pool[i], degs[i]))
				} else {
					i -= len(pool)
					fmt.Fprintf(&b, "%d stray %d %t\n", call, i, ev.Label(stray[i], strayDegs[i]))
				}
			default:
				ev.Sync()
			}
		}
	}
	dump("verdict", ev.Verdict())
	st := ev.Status()
	dump("status", st)
	if st.Evicted == 0 || st.Unmatched == 0 || st.Mismatches == 0 {
		t.Fatalf("sequence never evicted, missed or mismatched: %+v", st)
	}

	got := b.String()
	golden := filepath.Join("testdata", "jointable_golden.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
		for i := 0; i < len(wl) && i < len(gl); i++ {
			if wl[i] != gl[i] {
				t.Fatalf("join table diverged from golden at line %d:\n--- golden\n%s\n--- got\n%s", i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("join table diverged from golden: %d lines, want %d", len(gl), len(wl))
	}
}
