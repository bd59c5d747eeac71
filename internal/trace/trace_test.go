package trace

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"quanterference/internal/sim"
	"quanterference/internal/workload"
)

func sampleRecords() []workload.Record {
	return []workload.Record{
		{
			Workload: "enzo", Rank: 0, Iter: 0, Seq: 3,
			Op:    workload.Op{Kind: workload.Write, Path: "/d/f0", Offset: 1 << 20, Size: 4096},
			Start: 100, End: 250, Targets: []int{2},
		},
		{
			Workload: "enzo", Rank: 1, Iter: 2, Seq: 0,
			Op:    workload.Op{Kind: workload.Stat, Path: "/d"},
			Start: 300, End: 400, Targets: []int{6},
		},
		{
			Workload: "enzo", Rank: 0, Iter: 0, Seq: 4,
			Op:    workload.Op{Kind: workload.Read, Path: "/d/striped", Offset: 0, Size: 2 << 20},
			Start: 500, End: 900, Targets: []int{0, 1},
		},
		// Names a reader used to alter: "-" came back empty, a leading
		// space was trimmed, and a workload starting with '#' read as a
		// comment line.
		{
			Workload: "-", Rank: 2, Iter: 1, Seq: 7,
			Op:    workload.Op{Kind: workload.Write, Path: " lead", Offset: 8, Size: 8},
			Start: 900, End: 950, Targets: []int{3},
		},
		{
			Workload: "#hash", Rank: 3,
			Op:    workload.Op{Kind: workload.Compute, Path: `\-`},
			Start: 950, End: 960,
		},
		{
			Workload: " ", Rank: 4,
			Op:    workload.Op{Kind: workload.Read, Path: "-", Size: 1},
			Start: 960, End: 970, Targets: []int{5},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	var b strings.Builder
	w := NewWriter(&b)
	recs := sampleRecords()
	for _, r := range recs {
		w.Write(r)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != len(recs) {
		t.Fatalf("count=%d", w.Count())
	}
	got, err := Read(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records", len(got))
	}
	for i := range recs {
		if !sameRecord(got[i], recs[i]) {
			t.Fatalf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

func TestHeaderAndCommentsSkipped(t *testing.T) {
	in := Header + "\n# a comment\n\nenzo\t0\t0\t0\tread\t/f\t0\t10\t1\t2\t0\n"
	recs, err := Read(strings.NewReader(in))
	if err != nil || len(recs) != 1 {
		t.Fatalf("recs=%d err=%v", len(recs), err)
	}
}

func TestRejectsMalformedLines(t *testing.T) {
	cases := []string{
		"too\tfew\tfields",
		"w\t0\t0\t0\tbogus-kind\t/f\t0\t10\t1\t2\t0",
		"w\tx\t0\t0\tread\t/f\t0\t10\t1\t2\t0",
		"w\t0\t0\t0\tread\t/f\t0\t10\t5\t2\t0", // end < start
		"w\t0\t0\t0\tread\t/f\t0\t10\t1\t2\tzz",
		// Negative values the Writer never writes; a target of -1 used to
		// reach clientmon.Record and panic there.
		"w\t-1\t0\t0\tread\t/f\t0\t10\t1\t2\t0",
		"w\t0\t-1\t0\tread\t/f\t0\t10\t1\t2\t0",
		"w\t0\t0\t-1\tread\t/f\t0\t10\t1\t2\t0",
		"w\t0\t0\t0\tread\t/f\t-1\t10\t1\t2\t0",
		"w\t0\t0\t0\tread\t/f\t0\t-10\t1\t2\t0",
		"w\t0\t0\t0\tread\t/f\t0\t10\t-1\t2\t0",
		"w\t0\t0\t0\tread\t/f\t0\t10\t1\t2\t-1",
		"w\t0\t0\t0\tread\t/f\t0\t10\t1\t2\t0,-3",
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Fatalf("accepted malformed line %q", c)
		}
	}
}

func TestSanitizesSeparators(t *testing.T) {
	var b strings.Builder
	w := NewWriter(&b)
	w.Write(workload.Record{
		Workload: "w\tith\ttabs",
		Op:       workload.Op{Kind: workload.Open, Path: "/p\nnewline"},
		Targets:  []int{6},
	})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := Read(strings.NewReader(b.String()))
	if err != nil || len(recs) != 1 {
		t.Fatalf("recs=%d err=%v", len(recs), err)
	}
	if strings.ContainsAny(recs[0].Op.Path, "\t\n") {
		t.Fatalf("path not sanitized: %q", recs[0].Op.Path)
	}
}

func TestEmptyPathRoundTrips(t *testing.T) {
	var b strings.Builder
	w := NewWriter(&b)
	w.Write(workload.Record{Op: workload.Op{Kind: workload.Compute}})
	_ = w.Flush()
	recs, err := Read(strings.NewReader(b.String()))
	if err != nil || len(recs) != 1 || recs[0].Op.Path != "" {
		t.Fatalf("recs=%v err=%v", recs, err)
	}
}

// roundTrip writes recs and reads them back.
func roundTrip(t *testing.T, recs []workload.Record) []workload.Record {
	t.Helper()
	var b strings.Builder
	w := NewWriter(&b)
	for _, r := range recs {
		w.Write(r)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := Read(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("reading back what Writer wrote: %v\n%s", err, b.String())
	}
	return got
}

// sameRecord compares every field the format carries; no targets and an
// empty target list are the same.
func sameRecord(a, b workload.Record) bool {
	return a.Workload == b.Workload && a.Rank == b.Rank && a.Iter == b.Iter &&
		a.Seq == b.Seq && a.Op == b.Op && a.Start == b.Start && a.End == b.End &&
		slices.Equal(a.Targets, b.Targets)
}

// FuzzRead checks three things: Read never panics on arbitrary input,
// whatever it accepts is non-negative and survives write → read unchanged,
// and a valid record built from the fuzzed fields survives write → read.
func FuzzRead(f *testing.F) {
	var b strings.Builder
	w := NewWriter(&b)
	for _, r := range sampleRecords() {
		w.Write(r)
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(b.String(), "enzo", "/d/f0", int64(0), int64(2), int64(3), uint8(1), int64(1<<20), int64(4096), int64(100), int64(150), int64(2))
	f.Add("w\t0\t0\t0\tread\t/f\t0\t10\t1\t2\t-1\n", "-", " lead", int64(-1), int64(0), int64(0), uint8(0x28), int64(0), int64(0), int64(0), int64(0), int64(-1))
	f.Add("#w\t0\t0\t0\tread\t/f\t0\t10\t1\t2\t0\n \t\n", "#hash", `\x`, int64(7), int64(1), int64(-2), uint8(0x13), int64(-5), int64(8), int64(1<<62), int64(1<<62), int64(6))
	f.Fuzz(func(t *testing.T, data, wl, path string, rank, iter, seq int64, kind uint8, offset, size, start, dur, target int64) {
		if recs, err := Read(strings.NewReader(data)); err == nil {
			got := roundTrip(t, recs)
			if len(got) != len(recs) {
				t.Fatalf("accepted %d records, %d survive write → read", len(recs), len(got))
			}
			for i, r := range recs {
				if r.Rank < 0 || r.Iter < 0 || r.Seq < 0 || r.Op.Offset < 0 || r.Op.Size < 0 ||
					r.Start < 0 || r.End < r.Start || slices.ContainsFunc(r.Targets, func(t int) bool { return t < 0 }) {
					t.Fatalf("accepted record %d has a negative field: %+v", i, r)
				}
				if !sameRecord(got[i], r) {
					t.Fatalf("accepted record %d changed: %+v, then %+v", i, r, got[i])
				}
			}
		}

		// A valid record: names without tab or newline, non-negative
		// numbers, a known kind, end not before start.
		clean := strings.NewReplacer("\t", "", "\n", "")
		nonNeg := func(v int64) int64 { return v & math.MaxInt64 }
		rec := workload.Record{
			Workload: clean.Replace(wl),
			Rank:     int(nonNeg(rank)), Iter: int(nonNeg(iter)), Seq: int(nonNeg(seq)),
			Op: workload.Op{
				Kind:   workload.Kind(int(kind&0x0f) % (int(workload.Compute) + 1)),
				Path:   clean.Replace(path),
				Offset: nonNeg(offset), Size: nonNeg(size),
			},
			Start: sim.Time(nonNeg(start)),
		}
		rec.End = rec.Start
		if d := sim.Time(nonNeg(dur)); d <= math.MaxInt64-rec.Start {
			rec.End += d
		}
		for i := 0; i < int(kind>>4)%3; i++ { // zero, one or two targets
			rec.Targets = append(rec.Targets, int(nonNeg(target)>>i))
		}
		got := roundTrip(t, []workload.Record{rec})
		if len(got) != 1 || !sameRecord(got[0], rec) {
			t.Fatalf("valid record %+v read back as %+v", rec, got)
		}
	})
}

// Property: arbitrary records survive a round trip.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(rank, iter, seq uint8, kindRaw uint8, off, size uint32, start uint32, durRaw uint16, tgt uint8) bool {
		kind := workload.Kind(kindRaw % 9)
		rec := workload.Record{
			Workload: "w",
			Rank:     int(rank), Iter: int(iter), Seq: int(seq),
			Op: workload.Op{
				Kind: kind, Path: "/p", Offset: int64(off), Size: int64(size),
			},
			Start:   sim.Time(start),
			End:     sim.Time(start) + sim.Time(durRaw),
			Targets: []int{int(tgt % 7)},
		}
		var b strings.Builder
		w := NewWriter(&b)
		w.Write(rec)
		if w.Flush() != nil {
			return false
		}
		got, err := Read(strings.NewReader(b.String()))
		if err != nil || len(got) != 1 {
			return false
		}
		g := got[0]
		return g.Op == rec.Op && g.Start == rec.Start && g.End == rec.End &&
			g.Rank == rec.Rank && g.Iter == rec.Iter && g.Seq == rec.Seq &&
			len(g.Targets) == 1 && g.Targets[0] == rec.Targets[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
