package blockqueue

import (
	"testing"
	"testing/quick"

	"quanterference/internal/disk"
	"quanterference/internal/sim"
)

func newQueue(cfg Config) (*sim.Engine, *Queue) {
	eng := sim.NewEngine()
	d := disk.New(eng, disk.Config{Seed: 11})
	return eng, New(eng, d, cfg)
}

func TestBackMergeContiguousWrites(t *testing.T) {
	eng, q := newQueue(Config{})
	// Occupy the device so submissions stay pending and can merge.
	q.Submit(disk.Write, 1<<20, 8, func() {})
	completions := 0
	for i := int64(0); i < 8; i++ {
		q.Submit(disk.Write, i*8, 8, func() { completions++ })
	}
	eng.Run()
	c := q.Counters()
	if completions != 8 {
		t.Fatalf("completions=%d", completions)
	}
	if c.WritesMerged != 7 {
		t.Fatalf("merged=%d, want 7", c.WritesMerged)
	}
	if c.WritesCompleted != 9 {
		t.Fatalf("completed=%d, want 9", c.WritesCompleted)
	}
	// 8 writes of 8 sectors merged into one device request.
	if q.DiskStats().Requests != 2 {
		t.Fatalf("device requests=%d, want 2", q.DiskStats().Requests)
	}
}

func TestFrontMerge(t *testing.T) {
	eng, q := newQueue(Config{})
	q.Submit(disk.Read, 1<<20, 8, func() {}) // busy the device
	q.Submit(disk.Read, 100, 10, func() {})
	q.Submit(disk.Read, 90, 10, func() {}) // front-merges onto [100,110)
	eng.Run()
	c := q.Counters()
	if c.ReadsMerged != 1 {
		t.Fatalf("merged=%d, want 1", c.ReadsMerged)
	}
	if c.SectorsRead != 8+20 {
		t.Fatalf("sectors=%d", c.SectorsRead)
	}
}

func TestNoMergeAcrossDirections(t *testing.T) {
	eng, q := newQueue(Config{})
	q.Submit(disk.Write, 1<<20, 8, func() {})
	q.Submit(disk.Read, 0, 8, func() {})
	q.Submit(disk.Write, 8, 8, func() {})
	eng.Run()
	c := q.Counters()
	if c.ReadsMerged+c.WritesMerged != 0 {
		t.Fatalf("unexpected merges: %+v", c)
	}
}

func TestMergeSizeCap(t *testing.T) {
	eng, q := newQueue(Config{})
	q.Submit(disk.Write, 1<<22, 8, func() {})
	q.Submit(disk.Write, 0, 1024, func() {})
	q.Submit(disk.Write, 1024, 1024, func() {}) // merges to exactly 2048 sectors (1 MiB)
	q.Submit(disk.Write, 2048, 1025, func() {}) // would exceed 2048
	eng.Run()
	if c := q.Counters(); c.WritesMerged != 1 {
		t.Fatalf("want one merge up to the 1 MiB cap and none past it: %+v", c)
	}
}

func TestElevatorOrdersBySector(t *testing.T) {
	eng, q := newQueue(Config{})
	var order []int64
	// First request busies the device at a low sector.
	q.Submit(disk.Read, 0, 8, func() {})
	for _, s := range []int64{9000, 3000, 6000} {
		s := s
		q.Submit(disk.Read, s, 8, func() { order = append(order, s) })
	}
	eng.Run()
	want := []int64{3000, 6000, 9000}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("elevator order %v, want %v", order, want)
		}
	}
}

func TestReadPriorityDispatchesReadsFirst(t *testing.T) {
	eng, q := newQueue(Config{})
	var order []string
	q.Submit(disk.Write, 1<<20, 8, func() {}) // busy device
	q.Submit(disk.Write, 0, 8, func() { order = append(order, "w") })
	q.Submit(disk.Read, 5000, 8, func() { order = append(order, "r") })
	eng.Run()
	if order[0] != "r" {
		t.Fatalf("read should dispatch before earlier write: %v", order)
	}
}

func TestWriteStarvationBounded(t *testing.T) {
	eng, q := newQueue(Config{WriteStarveLimit: 3})
	writeDone := sim.Time(0)
	q.Submit(disk.Write, 4096, 8, func() { writeDone = eng.Now() })
	// Feed a continuous stream of reads: each completion enqueues another.
	reads := 0
	var feed func()
	feed = func() {
		if reads >= 50 {
			return
		}
		reads++
		q.Submit(disk.Read, int64(reads)*1000, 8, func() { feed() })
	}
	feed()
	feed()
	eng.Run()
	if writeDone == 0 {
		t.Fatal("write starved forever")
	}
	// The write must complete long before all 50 reads do.
	if writeDone == eng.Now() {
		t.Fatal("write only completed at the very end")
	}
}

func TestInFlightAccounting(t *testing.T) {
	eng, q := newQueue(Config{})
	for i := int64(0); i < 5; i++ {
		q.Submit(disk.Read, i*10000, 8, func() {})
	}
	if c := q.Counters(); c.InFlight != 5 {
		t.Fatalf("inflight=%d, want 5", c.InFlight)
	}
	eng.Run()
	c := q.Counters()
	if c.InFlight != 0 {
		t.Fatalf("inflight=%d after drain", c.InFlight)
	}
	if c.WeightedIOTime <= c.IOTime {
		t.Fatalf("weighted (%d) should exceed io time (%d) with queued requests",
			c.WeightedIOTime, c.IOTime)
	}
	if c.IOTime != eng.Now() {
		t.Fatalf("io time %d, want busy whole run %d", c.IOTime, eng.Now())
	}
}

func TestLatencyCountersGrowWithQueueDepth(t *testing.T) {
	// A deep queue should show much higher per-request ReadTime than a
	// serial submission of the same requests.
	deep := func() sim.Time {
		eng, q := newQueue(Config{})
		for i := int64(0); i < 20; i++ {
			q.Submit(disk.Read, i*100000, 8, func() {})
		}
		eng.Run()
		return q.Counters().ReadTime
	}()
	serial := func() sim.Time {
		eng, q := newQueue(Config{})
		var next func(i int64)
		next = func(i int64) {
			if i >= 20 {
				return
			}
			q.Submit(disk.Read, i*100000, 8, func() { next(i + 1) })
		}
		next(0)
		eng.Run()
		return q.Counters().ReadTime
	}()
	if deep < 3*serial {
		t.Fatalf("queued latency %d not >> serial %d", deep, serial)
	}
}

// Property: completions equal submissions, and sector counters match the
// sum of submitted sizes regardless of merging.
func TestPropertyConservation(t *testing.T) {
	f := func(seed uint8, sizes []uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 100 {
			sizes = sizes[:100]
		}
		eng, q := newQueue(Config{})
		rng := sim.NewRNG(int64(seed))
		done := 0
		var wantRead, wantWrite uint64
		for _, sz := range sizes {
			n := int64(sz%64) + 1
			op := disk.Op(rng.Intn(2))
			if op == disk.Read {
				wantRead += uint64(n)
			} else {
				wantWrite += uint64(n)
			}
			q.Submit(op, rng.Int63n(1<<30), n, func() { done++ })
		}
		eng.Run()
		c := q.Counters()
		return done == len(sizes) &&
			c.SectorsRead == wantRead && c.SectorsWritten == wantWrite &&
			c.ReadsCompleted+c.WritesCompleted == uint64(len(sizes)) &&
			c.InFlight == 0 && q.Idle()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
