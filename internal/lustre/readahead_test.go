package lustre

import (
	"testing"

	"quanterference/internal/hw"
	"quanterference/internal/netsim"
	"quanterference/internal/sim"
)

// readSeq reads the file sequentially in 1 MiB ops with an optional think
// gap between them, returning per-op times and the completion timestamp.
func readSeq(eng *sim.Engine, c *Client, path string, total int64, gap sim.Time) ([]sim.Time, sim.Time) {
	var times []sim.Time
	var finished sim.Time
	c.Open(path, func(h *Handle) {
		var next func(off int64)
		next = func(off int64) {
			if off >= total {
				finished = eng.Now()
				return
			}
			start := eng.Now()
			c.Read(h, off, 1<<20, func() {
				times = append(times, eng.Now()-start)
				if gap > 0 {
					eng.Schedule(gap, func() { next(off + 1<<20) })
				} else {
					next(off + 1<<20)
				}
			})
		}
		next(0)
	})
	eng.RunUntil(sim.Seconds(300))
	return times, finished
}

func TestReadaheadPipelinesSequentialStream(t *testing.T) {
	// With readahead a sequential stream approaches media speed; without
	// it every op pays a full network+disk round trip.
	run := func(readahead bool) sim.Time {
		eng := sim.NewEngine()
		net := netsim.New(eng, netsim.Config{})
		fs := New(eng, net, hw.Profile{})
		if !readahead {
			fs.readAheadChunks = 0
		}
		fs.Populate("/seq", 64<<20, 1)
		times, finished := readSeq(eng, fs.Client("c0"), "/seq", 64<<20, 0)
		if len(times) != 64 {
			t.Fatalf("reads=%d", len(times))
		}
		return finished
	}
	with := run(true)
	without := run(false)
	// The gain is bounded here: the 1 GB/s NIC keeps the per-op round
	// trip small relative to the 7 ms media time, so pipelining only
	// hides the ~1.3 ms request/reply overhead per op.
	if float64(without) < 1.1*float64(with) {
		t.Fatalf("readahead should speed sequential reads: with=%v without=%v",
			with, without)
	}
}

func TestReadaheadServesLaterReadsFromCache(t *testing.T) {
	eng := sim.NewEngine()
	net := netsim.New(eng, netsim.Config{})
	fs := New(eng, net, hw.Profile{})
	fs.Populate("/seq", 16<<20, 1)
	times, _ := readSeq(eng, fs.Client("c0"), "/seq", 16<<20, 0)
	// Steady-state reads ride the prefetch pipeline: latency drops to the
	// pure media streaming time, below the cold first fetch (which pays
	// the request round trip and rotational positioning too).
	cold := times[0]
	fast := 0
	for _, tt := range times[2:] {
		if float64(tt) < 0.9*float64(cold) {
			fast++
		}
	}
	if fast < len(times)/2 {
		t.Fatalf("reads not pipelined: first=%v rest=%v", cold, times[1:5])
	}
}

func TestNoReadaheadForStridedPattern(t *testing.T) {
	// Strided reads (ior-hard style) must not trigger prefetch: every op
	// should hit the disk, visible as device reads ~= op count.
	eng := sim.NewEngine()
	net := netsim.New(eng, netsim.Config{})
	fs := New(eng, net, hw.Profile{})
	fs.Populate("/strided", 64<<20, 1)
	c := fs.Client("c0")
	ops := 0
	c.Open("/strided", func(h *Handle) {
		var next func(i int64)
		next = func(i int64) {
			if i >= 32 {
				return
			}
			// Stride of 2 MiB: never sequential.
			c.Read(h, i*(2<<20), 47008, func() {
				ops++
				next(i + 1)
			})
		}
		next(0)
	})
	eng.Run()
	ino := fs.MDS().Lookup("/strided")
	reads := fs.OST(ino.OSTs[0]).Queue().Counters().ReadsCompleted
	if ops != 32 {
		t.Fatalf("ops=%d", ops)
	}
	if reads > 40 { // each op 1 request (+ merge slack); prefetch would add 4 MiB+
		t.Fatalf("strided pattern triggered prefetch: %d device reads for %d ops", reads, ops)
	}
}

func TestWriteInvalidatesReadahead(t *testing.T) {
	eng := sim.NewEngine()
	net := netsim.New(eng, netsim.Config{})
	fs := New(eng, net, hw.Profile{})
	fs.Populate("/rw", 16<<20, 1)
	c := fs.Client("c0")
	c.Open("/rw", func(h *Handle) {
		c.Read(h, 0, 1<<20, func() {
			c.Read(h, 1<<20, 1<<20, func() { // arms prefetch
				if len(h.ra) == 0 {
					t.Fatal("prefetch never armed")
				}
				c.Write(h, 2<<20, 4096, func() {
					if h.ra != nil {
						t.Fatal("write did not drop the readahead cache")
					}
				})
			})
		})
	})
	eng.Run()
}

func TestReadaheadStopsAtEOF(t *testing.T) {
	eng := sim.NewEngine()
	net := netsim.New(eng, netsim.Config{})
	fs := New(eng, net, hw.Profile{})
	fs.Populate("/small", 3<<20, 1)
	done := 0
	c := fs.Client("c0")
	c.Open("/small", func(h *Handle) {
		var next func(off int64)
		next = func(off int64) {
			if off >= 3<<20 {
				return
			}
			c.Read(h, off, 1<<20, func() { done++; next(off + 1<<20) })
		}
		next(0)
	})
	eng.Run()
	if done != 3 {
		t.Fatalf("reads=%d", done)
	}
	// Device must not have read beyond the file.
	ino := fs.MDS().Lookup("/small")
	sectors := fs.OST(ino.OSTs[0]).Queue().Counters().SectorsRead
	if sectors > (3<<20)/512+64 {
		t.Fatalf("read past EOF: %d sectors", sectors)
	}
}

func TestCacheHitCostsConfiguredTime(t *testing.T) {
	eng := sim.NewEngine()
	net := netsim.New(eng, netsim.Config{})
	fs := New(eng, net, hw.Profile{})
	fs.cacheHitTime = 10 * sim.Millisecond
	fs.Populate("/hit", 32<<20, 1)
	// A think gap between reads lets the prefetcher run ahead, so later
	// reads find their chunk fully landed: a pure client cache hit.
	times, _ := readSeq(eng, fs.Client("c0"), "/hit", 32<<20, 20*sim.Millisecond)
	hits := 0
	for _, tt := range times {
		if tt == 10*sim.Millisecond {
			hits++
		}
	}
	if hits == 0 {
		t.Fatalf("no cache hits at configured cost; times=%v", times[:8])
	}
}
