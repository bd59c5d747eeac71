package netsim

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"quanterference/internal/sim"
)

// scheduleTrace plays one seeded random schedule of transfers and NIC
// degradations over a small heterogeneous fabric, logging after every
// transfer start, completion and bandwidth change the simulated time and
// the exact rate of every active flow in creation order.
func scheduleTrace(seed int64) []string {
	eng := sim.NewEngine()
	n := New(eng, Config{})
	names := []string{"c0", "c1", "c2", "c3", "oss0", "oss1", "mds"}
	bps := []float64{0, 117e6, 250e6, 25e6, 0, 93.7e6, 0}
	for i, name := range names {
		n.AddNode(name, bps[i])
	}
	rng := sim.NewRNG(seed)
	var out []string
	logState := func(ev string) {
		var b strings.Builder
		fmt.Fprintf(&b, "%d %s", eng.Now(), ev)
		for _, r := range activeRates(n) {
			b.WriteByte(' ')
			b.WriteString(strconv.FormatFloat(r, 'g', -1, 64))
		}
		out = append(out, b.String())
	}
	for i := 0; i < 48; i++ {
		src, dst := names[rng.Intn(len(names))], names[rng.Intn(len(names))]
		var bytes int64
		switch rng.Intn(6) {
		case 0: // a control message
		case 1:
			bytes = rng.Int63n(4096) + 1
		default:
			bytes = rng.Int63n(8<<20) + 1
		}
		at := sim.Time(rng.Int63n(int64(300 * sim.Millisecond)))
		label := fmt.Sprintf("%s>%s#%d", src, dst, i)
		eng.At(at, func() {
			transferNamed(n, src, dst, bytes, func() { logState("done " + label) })
			logState("start " + label)
		})
	}
	for k := 0; k < 5; k++ {
		name := names[rng.Intn(len(names))]
		scale := 0.1 + 0.9*rng.Float64()
		at := sim.Time(rng.Int63n(int64(300 * sim.Millisecond)))
		eng.At(at, func() {
			if err := n.SetBandwidthScale(name, scale); err != nil {
				panic(err)
			}
			logState(fmt.Sprintf("scale %s %g", name, scale))
		})
	}
	eng.Run()
	return out
}

// TestScheduleGolden pins every completion time and every fair-share rate,
// bit for bit, on seeded random schedules against the committed trace.
// Regenerate with UPDATE_GOLDEN=1 go test -run TestScheduleGolden
// ./internal/netsim — only for a deliberate change to the fluid model.
func TestScheduleGolden(t *testing.T) {
	var got []string
	for _, seed := range []int64{1, 7, 42} {
		got = append(got, fmt.Sprintf("seed %d", seed))
		got = append(got, scheduleTrace(seed)...)
	}
	path := filepath.Join("testdata", "schedules_golden.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("line %d:\n got  %q\n want %q", i+1, g, w)
		}
	}
}
