package lustre

import (
	"testing"
	"testing/quick"

	"quanterference/internal/disk"
	"quanterference/internal/sim"
)

func newTestOST(t *testing.T) (*sim.Engine, *OST) {
	t.Helper()
	eng := sim.NewEngine()
	oss := &OSS{Node: "oss", Threads: sim.NewResource(eng, 4)}
	return eng, newOST(eng, disk.Config{}, 0, oss, 7)
}

// cloneRuns copies mapRange's scratch-backed result so a test can hold it
// across a subsequent mapRange call.
func cloneRuns(rs []run) []run { return append([]run(nil), rs...) }

func TestMapRangeSequentialIsContiguous(t *testing.T) {
	_, o := newTestOST(t)
	a := cloneRuns(o.mapRange(1, 0, 100))
	b := o.mapRange(1, 100, 100)
	if len(a) != 1 || len(b) != 1 {
		t.Fatalf("runs a=%v b=%v", a, b)
	}
	if a[0].sector+a[0].length != b[0].sector {
		t.Fatalf("sequential logical ranges not physically adjacent: %v %v", a, b)
	}
	// The object should hold a single merged extent now.
	if n := len(o.object(1).extents); n != 1 {
		t.Fatalf("extents=%d, want merged 1", n)
	}
}

func TestMapRangeOverwriteReusesSectors(t *testing.T) {
	_, o := newTestOST(t)
	first := cloneRuns(o.mapRange(1, 0, 64))
	again := o.mapRange(1, 0, 64)
	if first[0] != again[0] {
		t.Fatalf("overwrite moved data: %v vs %v", first, again)
	}
}

func TestMapRangeInterleavedObjectsFragment(t *testing.T) {
	_, o := newTestOST(t)
	a1 := cloneRuns(o.mapRange(1, 0, 64))
	b1 := cloneRuns(o.mapRange(2, 0, 64))
	a2 := o.mapRange(1, 64, 64)
	// Object 1's second chunk cannot be adjacent to its first: object 2
	// allocated in between (the fragmentation mechanism behind the
	// mdt-hard-write interference row).
	if a1[0].sector+a1[0].length == a2[0].sector {
		t.Fatal("interleaved allocation should fragment")
	}
	if b1[0].sector != a1[0].sector+a1[0].length {
		t.Fatalf("allocation not append-ordered: %v after %v", b1, a1)
	}
}

func TestMapRangePartialOverlap(t *testing.T) {
	_, o := newTestOST(t)
	o.mapRange(1, 0, 100)
	runs := o.mapRange(1, 50, 100) // 50 allocated + 50 hole
	if len(runs) != 2 {
		t.Fatalf("runs=%v", runs)
	}
	if runs[0].length != 50 || runs[1].length != 50 {
		t.Fatalf("split wrong: %v", runs)
	}
}

// Property: for any sequence of ranges over a handful of objects, mapRange
// returns runs covering exactly the requested length, stable translations
// for repeated queries, and no two objects share physical sectors.
func TestPropertyMapRangeInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		_, o := newTestOST(t)
		type q struct {
			obj      uint64
			start, n int64
		}
		var queries []q
		for _, raw := range ops {
			queries = append(queries, q{
				obj:   uint64(raw%3) + 1,
				start: int64(raw/3) % 500,
				n:     int64(raw%97) + 1,
			})
		}
		// ownership tracks which object owns each physical sector.
		owner := map[int64]uint64{}
		for _, qu := range queries {
			runs := cloneRuns(o.mapRange(qu.obj, qu.start, qu.n))
			var covered int64
			for _, r := range runs {
				if r.length <= 0 {
					return false
				}
				covered += r.length
				for s := r.sector; s < r.sector+r.length; s++ {
					if prev, ok := owner[s]; ok && prev != qu.obj {
						return false // cross-object aliasing
					}
					owner[s] = qu.obj
				}
			}
			if covered != qu.n {
				return false
			}
			// Repeat query must translate to the same physical bytes
			// (segmentation may differ once extents merge).
			if !sameCoverage(runs, o.mapRange(qu.obj, qu.start, qu.n)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: extents stay sorted, non-overlapping, and physically in-bounds.
func TestPropertyExtentListWellFormed(t *testing.T) {
	f := func(ops []uint16) bool {
		_, o := newTestOST(t)
		for _, raw := range ops {
			o.mapRange(uint64(raw%2)+1, int64(raw)%1000, int64(raw%61)+1)
		}
		for id := uint64(1); id <= 2; id++ {
			exts := o.object(id).extents
			for i, e := range exts {
				if e.length <= 0 || e.sector < 0 || e.sector+e.length > o.nextSector {
					return false
				}
				if i > 0 {
					prev := exts[i-1]
					if prev.logOff+prev.length > e.logOff {
						return false // overlap or disorder
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// sameCoverage reports whether two run lists describe the same physical
// sector sequence.
func sameCoverage(a, b []run) bool {
	flat := func(rs []run) []int64 {
		var out []int64
		for _, r := range rs {
			for s := r.sector; s < r.sector+r.length; s++ {
				out = append(out, s)
			}
		}
		return out
	}
	fa, fb := flat(a), flat(b)
	if len(fa) != len(fb) {
		return false
	}
	for i := range fa {
		if fa[i] != fb[i] {
			return false
		}
	}
	return true
}

func TestWriteWaitersServedFIFO(t *testing.T) {
	eng, o := newTestOST(t)
	o.dirtyCap = 1 << 20
	var order []int
	// Fill the cache, then queue three writes of different sizes.
	o.write(1, 0, 1<<20, func() {})
	o.write(1, 1<<20, 512<<10, func() { order = append(order, 0) }) // waits
	o.write(2, 0, 1024, func() { order = append(order, 1) })        // small, must still wait
	o.write(1, 2<<20, 256<<10, func() { order = append(order, 2) })
	if o.ThrottledWrites() != 3 {
		t.Fatalf("throttled=%d, want 3", o.ThrottledWrites())
	}
	eng.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("admission order %v, want FIFO", order)
		}
	}
	if o.DirtyBytes() != 0 {
		t.Fatalf("dirty=%d after drain", o.DirtyBytes())
	}
}
