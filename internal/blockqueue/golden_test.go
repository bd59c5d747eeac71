package blockqueue

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quanterference/internal/disk"
	"quanterference/internal/sim"
)

// lustreQueue is the configuration of the lustre queues: writes starved
// for at most starve reads (4 on the MDT, 8 on every OST).
func lustreQueue(starve int) Config {
	return Config{WriteStarveLimit: starve}
}

// completionTrace plays a seeded schedule of read and write bursts through
// one queue and logs every completion in order: simulated time, request
// id, direction, start sector and length, then the final counters. Bursts
// mix sequential runs, which merge up to the size cap, with scattered
// requests, which the elevator sorts, so the trace pins merging, C-LOOK
// order and the read-priority/write-starvation interplay together.
func completionTrace(cfg Config, seed int64) []string {
	eng := sim.NewEngine()
	q := New(eng, disk.New(eng, disk.Config{Seed: seed}), cfg)
	rng := sim.NewRNG(seed)
	var out []string
	id := 0
	for b := 0; b < 40; b++ {
		at := sim.Time(rng.Int63n(int64(sim.Second)))
		op := disk.Op(rng.Intn(2))
		n := rng.Intn(8) + 1
		seq := rng.Intn(2) == 0
		size := rng.Int63n(512) + 8
		sector := rng.Int63n(1 << 30)
		type req struct {
			id      int
			sector  int64
			sectors int64
		}
		burst := make([]req, n)
		for k := range burst {
			id++
			burst[k] = req{id: id, sector: sector, sectors: size}
			if seq {
				sector += size
			} else {
				sector = rng.Int63n(1 << 30)
			}
		}
		eng.At(at, func() {
			for _, r := range burst {
				q.Submit(op, r.sector, r.sectors, func() {
					out = append(out, fmt.Sprintf("%d #%d %s %d+%d", eng.Now(), r.id, op, r.sector, r.sectors))
				})
			}
		})
	}
	eng.Run()
	return append(out, fmt.Sprintf("counters %+v", q.Counters()))
}

// TestCompletionGolden pins the completion order and time of every request,
// bit for bit, under both lustre queue settings on seeded bursts against
// the committed trace. Regenerate with UPDATE_GOLDEN=1 go test -run
// TestCompletionGolden ./internal/blockqueue — only for a deliberate change
// to the block-layer model.
func TestCompletionGolden(t *testing.T) {
	var got []string
	for _, starve := range []int{4, 8} {
		for _, seed := range []int64{1, 7, 42} {
			got = append(got, fmt.Sprintf("starve %d seed %d", starve, seed))
			got = append(got, completionTrace(lustreQueue(starve), seed)...)
		}
	}
	path := filepath.Join("testdata", "completions_golden.txt")
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
			t.Fatalf("line %d:\n got  %q\n want %q", i+1, g, w)
		}
	}
}
