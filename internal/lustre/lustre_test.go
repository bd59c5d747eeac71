package lustre

import (
	"testing"

	"quanterference/internal/hw"
	"quanterference/internal/netsim"
	"quanterference/internal/sim"
)

func newFS() (*sim.Engine, *FS) {
	eng := sim.NewEngine()
	net := netsim.New(eng, netsim.Config{})
	fs := New(eng, net, hw.PaperProfile())
	return eng, fs
}

func TestTopologyAssembly(t *testing.T) {
	_, fs := newFS()
	if fs.NumOSTs() != 6 {
		t.Fatalf("OSTs=%d, want 6", fs.NumOSTs())
	}
	if fs.NumTargets() != 7 || fs.MDTIndex() != 6 {
		t.Fatalf("targets=%d mdt=%d", fs.NumTargets(), fs.MDTIndex())
	}
	if fs.TargetName(0) != "ost0" || fs.TargetName(6) != "mdt" {
		t.Fatalf("bad target names")
	}
	if len(fs.OSSs()) != 3 {
		t.Fatalf("OSSs=%d", len(fs.OSSs()))
	}
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	eng, fs := newFS()
	c := fs.Client("c0")
	var phases []string
	c.Create("/f", 1, func(h *Handle) {
		phases = append(phases, "create")
		c.Write(h, 0, 1<<20, func() {
			phases = append(phases, "write")
			c.Read(h, 0, 1<<20, func() {
				phases = append(phases, "read")
				c.Close(h, func() { phases = append(phases, "close") })
			})
		})
	})
	eng.Run()
	want := []string{"create", "write", "read", "close"}
	if len(phases) != len(want) {
		t.Fatalf("phases %v", phases)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("phases %v, want %v", phases, want)
		}
	}
	if got := fs.MDS().Lookup("/f"); got == nil || got.Size != 1<<20 {
		t.Fatalf("inode %+v", got)
	}
}

func TestStripingSpreadsAcrossOSTs(t *testing.T) {
	eng, fs := newFS()
	c := fs.Client("c0")
	var h *Handle
	c.Create("/striped", 6, func(hh *Handle) { h = hh })
	eng.Run()
	if len(h.Ino.OSTs) != 6 {
		t.Fatalf("stripe count %d, want 6", len(h.Ino.OSTs))
	}
	targets := h.Targets(0, 6<<20)
	if len(targets) != 6 {
		t.Fatalf("6 MiB over 6 stripes should hit 6 OSTs, got %v", targets)
	}
	// A single stripe-unit range hits exactly one OST.
	if got := h.Targets(0, 1<<20); len(got) != 1 {
		t.Fatalf("1 MiB range targets %v", got)
	}
	// Second unit goes to the next stripe.
	if a, b := h.Targets(0, 1)[0], h.Targets(1<<20, 1)[0]; a == b {
		t.Fatalf("consecutive units on same OST %d", a)
	}
}

func TestChunkOffsetsRAID0(t *testing.T) {
	_, fs := newFS()
	ino := fs.Populate("/r0", 8<<20, 2)
	h := &Handle{Ino: ino}
	// Units 0,2,4.. are on OSTs[0] at object offsets 0,1MiB,2MiB...
	chs := h.chunks(2<<20, 1<<20) // unit 2 -> stripe 0, object unit 1
	if len(chs) != 1 || chs[0].ost != ino.OSTs[0] || chs[0].objOff != 1<<20 {
		t.Fatalf("chunks %+v (osts %v)", chs, ino.OSTs)
	}
	// Unaligned range crossing a boundary splits.
	chs = h.chunks(1<<20-512, 1024)
	if len(chs) != 2 || chs[0].length != 512 || chs[1].length != 512 {
		t.Fatalf("boundary chunks %+v", chs)
	}
}

func TestRoundRobinOSTAssignment(t *testing.T) {
	eng, fs := newFS()
	c := fs.Client("c0")
	seen := map[int]int{}
	for i := 0; i < 12; i++ {
		path := string(rune('a'+i)) + "/f"
		c.Create(path, 1, func(h *Handle) { seen[h.Ino.OSTs[0]]++ })
	}
	eng.Run()
	for ost := 0; ost < 6; ost++ {
		if seen[ost] != 2 {
			t.Fatalf("round robin uneven: %v", seen)
		}
	}
}

func TestMetadataCacheHitVsMiss(t *testing.T) {
	eng, fs := newFS()
	fs.mds.cacheCap = 4
	c := fs.Client("c0")
	for i := 0; i < 8; i++ {
		fs.Populate(pathN(i), 4096, 1)
	}
	// Stat 8 files: all cold misses. Then stat #7 again: hit.
	var stats int
	var next func(i int)
	next = func(i int) {
		if i >= 9 {
			return
		}
		p := pathN(i % 8)
		if i == 8 {
			p = pathN(7)
		}
		c.Stat(p, func() { stats++; next(i + 1) })
	}
	next(0)
	eng.Run()
	ms := fs.MDS().Stats()
	if ms.CacheMisses != 8 || ms.CacheHits != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/8", ms.CacheHits, ms.CacheMisses)
	}
}

func pathN(i int) string { return "/d/f" + string(rune('0'+i)) }

func TestUnlinkRemovesFromNamespace(t *testing.T) {
	eng, fs := newFS()
	fs.Populate("/gone", 4096, 1)
	c := fs.Client("c0")
	c.Unlink("/gone", func() {})
	eng.Run()
	if fs.MDS().Lookup("/gone") != nil {
		t.Fatal("unlink left the inode")
	}
}

func TestOpenMissingPanics(t *testing.T) {
	eng, fs := newFS()
	c := fs.Client("c0")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Open("/missing", func(*Handle) {})
	eng.Run()
}

func TestSequentialWriteThroughputDiskBound(t *testing.T) {
	// One client streaming 1 MiB writes: the 1 GB/s NIC is not the
	// bottleneck; observed throughput is the 150 MB/s disk drain plus the
	// write-back cache absorbing the first WritebackLimit bytes.
	eng, fs := newFS()
	c := fs.Client("c0")
	const total = 64 << 20
	var doneAt sim.Time
	c.Create("/big", 1, func(h *Handle) {
		var writeNext func(off int64)
		writeNext = func(off int64) {
			if off >= total {
				doneAt = eng.Now()
				return
			}
			c.Write(h, off, 1<<20, func() { writeNext(off + 1<<20) })
		}
		writeNext(0)
	})
	eng.Run()
	mbps := float64(total) / 1e6 / sim.ToSeconds(doneAt)
	if mbps < 130 || mbps > 260 {
		t.Fatalf("write throughput %.1f MB/s, want disk-bound ~150-210", mbps)
	}
}

func TestWritebackAbsorbsBurst(t *testing.T) {
	// A burst no larger than the write-back limit (16 MiB) completes at
	// NIC speed, long before the disk finishes flushing.
	eng, fs := newFS()
	c := fs.Client("c0")
	var acceptedAt sim.Time
	c.Create("/burst", 1, func(h *Handle) {
		remaining := 16
		for i := 0; i < 16; i++ {
			c.Write(h, int64(i)<<20, 1<<20, func() {
				remaining--
				if remaining == 0 {
					acceptedAt = eng.Now()
				}
			})
		}
	})
	eng.Run()
	ostID := fs.MDS().Lookup("/burst").OSTs[0]
	if fs.OST(ostID).DirtyBytes() != 0 {
		t.Fatal("dirty data never flushed")
	}
	// 16 MiB at the 1 GB/s NIC is ~17 ms; acceptance should be close.
	if acceptedAt > sim.Seconds(0.3) {
		t.Fatalf("burst accepted at %.3fs, want <0.3s", sim.ToSeconds(acceptedAt))
	}
	if eng.Now() <= acceptedAt {
		t.Fatal("flush should continue after acceptance")
	}
}

func TestWriteThrottlingAtDirtyLimit(t *testing.T) {
	// With a tiny write-back limit, sustained writes must throttle.
	eng, fs := newFS()
	for _, o := range fs.osts {
		o.dirtyCap = 2 << 20
	}
	c := fs.Client("c0")
	c.Create("/throttle", 1, func(h *Handle) {
		for i := 0; i < 32; i++ {
			c.Write(h, int64(i)<<20, 1<<20, func() {})
		}
	})
	eng.Run()
	ostID := fs.MDS().Lookup("/throttle").OSTs[0]
	if fs.OST(ostID).ThrottledWrites() == 0 {
		t.Fatal("expected write throttling at the dirty limit")
	}
}

func TestReadVsWriteAsymmetry(t *testing.T) {
	// The paper's Table I asymmetry: background writes barely slow a
	// reader (duplex NIC + read-priority disk + write-back), while
	// background reads substantially slow a writer (cache drain starved).
	// The write-back limit (16 MiB) is small relative to the streamed size
	// (32 MiB), so sustained writes must track the disk drain rate, as on
	// a real system.
	soloRead := measureStream(t, false, nil)
	readVsWrites := measureStream(t, false, func(fs *FS, stop *bool) {
		hammerWrites(fs, "c1", 4, stop)
	})
	soloWrite := measureStream(t, true, nil)
	writeVsReads := measureStream(t, true, func(fs *FS, stop *bool) {
		hammerReads(fs, "c1", 4, stop)
	})
	readSlow := float64(readVsWrites) / float64(soloRead)
	writeSlow := float64(writeVsReads) / float64(soloWrite)
	t.Logf("read slowdown under writes: %.2fx; write slowdown under reads: %.2fx",
		readSlow, writeSlow)
	if writeSlow < 1.5 {
		t.Fatalf("writes should suffer under read interference, got %.2fx", writeSlow)
	}
	if readSlow > writeSlow {
		t.Fatalf("asymmetry inverted: reads %.2fx vs writes %.2fx", readSlow, writeSlow)
	}
}

// measureStream times a 32 MiB sequential stream on OST of file /target
// from c0, optionally with background interference.
func measureStream(t *testing.T, write bool, bg func(*FS, *bool)) sim.Time {
	t.Helper()
	eng, fs := newFS()
	c := fs.Client("c0")
	const total = 32 << 20
	fs.Populate("/target", total, 1)
	stop := false
	if bg != nil {
		bg(fs, &stop)
	}
	var start, end sim.Time
	c.Open("/target", func(h *Handle) {
		start = eng.Now()
		var next func(off int64)
		next = func(off int64) {
			if off >= total {
				end = eng.Now()
				stop = true
				return
			}
			op := c.Read
			if write {
				op = c.Write
			}
			op(h, off, 1<<20, func() { next(off + 1<<20) })
		}
		next(0)
	})
	eng.RunUntil(sim.Seconds(120))
	if end == 0 {
		t.Fatal("stream did not finish in 120 simulated seconds")
	}
	return end - start
}

// hammerWrites runs `streams` parallel sequential 1 MiB write loops against
// the target's OST from another node, mimicking one interference instance
// with several ranks.
func hammerWrites(fs *FS, node string, streams int, stop *bool) {
	c := fs.Client(node)
	target := fs.MDS().Lookup("/target")
	for s := 0; s < streams; s++ {
		ino := fs.Populate("/bgw"+string(rune('0'+s)), 1, 1)
		// Force the background file onto the same OST as the target.
		ino.OSTs = append([]int(nil), target.OSTs...)
		h := &Handle{c: c, Ino: ino}
		var next func(off int64)
		next = func(off int64) {
			if *stop {
				return
			}
			c.Write(h, off%(64<<20), 1<<20, func() { next(off + 1<<20) })
		}
		next(0)
	}
}

// hammerReads runs `streams` parallel sequential 1 MiB read loops against
// the target's OST from another node.
func hammerReads(fs *FS, node string, streams int, stop *bool) {
	c := fs.Client(node)
	target := fs.MDS().Lookup("/target")
	for s := 0; s < streams; s++ {
		ino := fs.Populate("/bgr"+string(rune('0'+s)), 64<<20, 1)
		ino.OSTs = append([]int(nil), target.OSTs...)
		h := &Handle{c: c, Ino: ino}
		var next func(off int64)
		next = func(off int64) {
			if *stop {
				return
			}
			c.Read(h, off%(64<<20), 1<<20, func() { next(off + 1<<20) })
		}
		next(0)
	}
}

func TestTwoReadersSlowEachOther(t *testing.T) {
	solo := measureStream(t, false, nil)
	contended := measureStream(t, false, func(fs *FS, stop *bool) {
		hammerReads(fs, "c1", 4, stop)
	})
	slow := float64(contended) / float64(solo)
	t.Logf("read-vs-read slowdown: %.2fx", slow)
	if slow < 2.5 {
		t.Fatalf("competing readers should slow each other, got %.2fx", slow)
	}
}

func TestMDSContention(t *testing.T) {
	// Time 200 stats alone vs with a metadata-hammering neighbour.
	run := func(withBG bool) sim.Time {
		eng, fs := newFS()
		// A 64-entry inode cache, so the 512 files' stats miss to the MDT.
		fs.mds.cacheCap = 64
		for i := 0; i < 512; i++ {
			fs.Populate(pathN(i%8)+string(rune('A'+i/8)), 4096, 1)
		}
		stop := false
		if withBG {
			// Background: createa stream of new files (journal writes).
			c1 := fs.Client("c1")
			var loop func(i int)
			loop = func(i int) {
				if stop {
					return
				}
				c1.Create("/bgmeta/f"+string(rune('0'+i%10))+string(rune('a'+(i/10)%26))+string(rune('a'+i/260)), 1,
					func(*Handle) { loop(i + 1) })
			}
			loop(0)
		}
		c := fs.Client("c0")
		var start, end sim.Time
		start = 0
		var next func(i int)
		next = func(i int) {
			if i >= 200 {
				end = eng.Now()
				stop = true
				return
			}
			c.Stat(pathN(i%8)+string(rune('A'+(i*7)%64)), func() { next(i + 1) })
		}
		next(0)
		eng.RunUntil(sim.Seconds(300))
		if end == 0 {
			t.Fatal("stats did not finish")
		}
		return end - start
	}
	solo := run(false)
	contended := run(true)
	slow := float64(contended) / float64(solo)
	t.Logf("metadata slowdown under metadata interference: %.2fx", slow)
	if slow < 1.2 {
		t.Fatalf("MDS contention should slow stats, got %.2fx", slow)
	}
}

func TestPopulateThenReadNoAllocationSurprises(t *testing.T) {
	eng, fs := newFS()
	fs.Populate("/pre", 8<<20, 2)
	c := fs.Client("c2")
	doneOps := 0
	c.Open("/pre", func(h *Handle) {
		for i := 0; i < 8; i++ {
			c.Read(h, int64(i)<<20, 1<<20, func() { doneOps++ })
		}
	})
	eng.Run()
	if doneOps != 8 {
		t.Fatalf("reads completed %d/8", doneOps)
	}
}

func TestDeterministicReplay(t *testing.T) {
	runOnce := func() sim.Time {
		eng, fs := newFS()
		c := fs.Client("c0")
		c.Create("/d", 2, func(h *Handle) {
			var next func(off int64)
			next = func(off int64) {
				if off >= 8<<20 {
					return
				}
				c.Write(h, off, 1<<20, func() { next(off + 1<<20) })
			}
			next(0)
		})
		eng.Run()
		return eng.Now()
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Fatalf("replay diverged: %d vs %d", a, b)
	}
}

func TestUnlinkDestroysOSTObjects(t *testing.T) {
	eng, fs := newFS()
	ino := fs.Populate("/victim", 4<<20, 2)
	for _, ostID := range ino.OSTs {
		if _, ok := fs.OST(ostID).objects[ino.ObjID]; !ok {
			t.Fatalf("object missing on ost%d before unlink", ostID)
		}
	}
	c := fs.Client("c0")
	c.Unlink("/victim", func() {})
	eng.Run()
	for _, ostID := range ino.OSTs {
		if _, ok := fs.OST(ostID).objects[ino.ObjID]; ok {
			t.Fatalf("object survived unlink on ost%d", ostID)
		}
	}
}

func TestFailSlowOSTVisibleInQueueMetrics(t *testing.T) {
	// A fail-slow OST must surface as inflated queue time on that target
	// only — what the server-side monitor (and hence the model) sees.
	run := func(inject bool) (healthyQT, slowQT sim.Time) {
		eng, fs := newFS()
		fs.Populate("/fs0", 16<<20, 1) // ost0
		fs.Populate("/fs1", 16<<20, 1) // ost1
		if inject {
			fs.OST(0).Queue().Device().ScaleSlowdown(8)
		}
		c := fs.Client("c0")
		read := func(path string) {
			c.Open(path, func(h *Handle) {
				var next func(off int64)
				next = func(off int64) {
					if off >= 16<<20 {
						return
					}
					c.Read(h, off, 1<<20, func() { next(off + 1<<20) })
				}
				next(0)
			})
		}
		read("/fs0")
		read("/fs1")
		eng.RunUntil(sim.Seconds(120))
		c0 := fs.OST(0).Queue().Counters()
		c1 := fs.OST(1).Queue().Counters()
		return c1.ReadTime, c0.ReadTime
	}
	healthyQT, slowQT := run(true)
	if slowQT < 4*healthyQT {
		t.Fatalf("fail-slow OST queue time %v not >> healthy %v", slowQT, healthyQT)
	}
}

// TestPooledPathAllocs pins the pooled continuations of each client path
// once the pools are warm: a metadata round trip and a bulk read or write
// allocate nothing of their own; Open allocates only the handle it returns.
func TestPooledPathAllocs(t *testing.T) {
	eng, fs := newFS()
	c := fs.Client("c0")
	var h *Handle
	c.Create("/f", 2, func(hh *Handle) { h = hh })
	eng.Run()
	c.Write(h, 0, 4<<20, func() {})
	eng.Run()
	done := func() {}
	opened := func(*Handle) {}
	for _, tc := range []struct {
		name string
		op   func()
		want float64
	}{
		{"stat", func() { c.Stat("/f", done) }, 0},
		{"open", func() { c.Open("/f", opened) }, 1},
		{"write", func() { c.Write(h, 0, 2<<20, done) }, 0},
		{"read", func() { c.Read(h, 1<<20, 2<<20, done) }, 0},
	} {
		if allocs := testing.AllocsPerRun(50, func() {
			tc.op()
			eng.Run()
		}); allocs != tc.want {
			t.Errorf("%s: %v allocations per op, want %v", tc.name, allocs, tc.want)
		}
	}
}

// Targets is computed from the layout; it must name the same OSTs in the
// same order as walking the range chunk by chunk.
func TestTargetsMatchChunkWalk(t *testing.T) {
	_, fs := newFS()
	rng := sim.NewRNG(7)
	for _, stripes := range []int{1, 2, 3, 6} {
		ino := fs.Populate("/t"+string(rune('0'+stripes)), 64<<20, stripes)
		h := &Handle{Ino: ino}
		for i := 0; i < 500; i++ {
			off := rng.Int63n(32 << 20)
			length := 1 + rng.Int63n(int64(rng.Intn(4)+1)*ino.StripeSize*int64(stripes))
			var want []int
			for _, ch := range h.chunks(off, length) {
				seen := false
				for _, o := range want {
					seen = seen || o == ch.ost
				}
				if !seen {
					want = append(want, ch.ost)
				}
			}
			got := h.Targets(off, length)
			if len(got) != len(want) {
				t.Fatalf("stripes %d off %d len %d: targets %v, want %v", stripes, off, length, got, want)
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("stripes %d off %d len %d: targets %v, want %v", stripes, off, length, got, want)
				}
			}
		}
	}
}
