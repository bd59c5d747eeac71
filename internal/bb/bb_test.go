package bb

import (
	"testing"

	"quanterference/internal/hw"
	"quanterference/internal/lustre"
	"quanterference/internal/netsim"
	"quanterference/internal/sim"
	"quanterference/internal/workload"
	"quanterference/internal/workload/io500"
)

func newFS() (*sim.Engine, *lustre.FS) {
	eng := sim.NewEngine()
	net := netsim.New(eng, netsim.Config{})
	return eng, lustre.New(eng, net, hw.PaperProfile())
}

func TestAbsorbCompletesAtLocalSpeed(t *testing.T) {
	eng, fs := newFS()
	c := fs.Client("c0")
	b := Attach(eng, c, hw.BurstBufferConfig{IngestBps: 2e9})
	var acceptedAt sim.Time
	c.Create("/bb", 1, func(h *lustre.Handle) {
		remaining := 16
		for i := 0; i < 16; i++ {
			b.Write(h, int64(i)<<20, 1<<20, func() {
				remaining--
				if remaining == 0 {
					acceptedAt = eng.Now()
				}
			})
		}
	})
	eng.Run()
	// 16 MiB at 2 GB/s is ~8 ms; the PFS path alone would take ~100+ ms.
	if acceptedAt > 20*sim.Millisecond {
		t.Fatalf("burst accepted at %v, want NVMe-speed", acceptedAt)
	}
	if !b.Idle() {
		t.Fatal("buffer never drained")
	}
	st := b.Stats()
	if st.Absorbed != 16<<20 || st.Drained != 16<<20 {
		t.Fatalf("stats %+v", st)
	}
	// The data must actually have reached the PFS.
	if fs.MDS().Lookup("/bb").Size != 16<<20 {
		t.Fatal("drain did not write through")
	}
}

func TestBufferSaturationStallsWrites(t *testing.T) {
	eng, fs := newFS()
	c := fs.Client("c0")
	b := Attach(eng, c, hw.BurstBufferConfig{CapacityBytes: 4 << 20})
	done := 0
	c.Create("/sat", 1, func(h *lustre.Handle) {
		for i := 0; i < 32; i++ {
			b.Write(h, int64(i)<<20, 1<<20, func() { done++ })
		}
	})
	eng.Run()
	if done != 32 {
		t.Fatalf("writes completed %d/32", done)
	}
	if b.Stats().Stalls == 0 {
		t.Fatal("expected stalls at 4 MiB capacity")
	}
	if b.Stats().PeakUsage > 4<<20 {
		t.Fatalf("capacity exceeded: peak %d", b.Stats().PeakUsage)
	}
}

func TestDrainOrderFIFOPerBuffer(t *testing.T) {
	eng, fs := newFS()
	c := fs.Client("c0")
	b := Attach(eng, c, hw.BurstBufferConfig{CapacityBytes: 2 << 20, DrainConcurrency: 1})
	var order []int64
	c.Create("/fifo", 1, func(h *lustre.Handle) {
		for i := 0; i < 6; i++ {
			off := int64(i) << 20
			b.Write(h, off, 1<<20, func() { order = append(order, off) })
		}
	})
	eng.Run()
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("completion order not FIFO: %v", order)
		}
	}
}

func TestRunnerWriteViaRoutesThroughBuffer(t *testing.T) {
	eng, fs := newFS()
	tier := NewTier(fs, hw.BurstBufferConfig{})
	g := io500.New(io500.IorEasyWrite, io500.Params{Dir: "/w", Ranks: 1, EasyFileBytes: 8 << 20})
	finished := false
	var usedAtDone int64
	r := &workload.Runner{
		FS: fs, Name: "bbrun", Nodes: []string{"c0"}, Ranks: 1, Gen: g,
		WriteViaFor: tier.Route,
		OnDone:      func() { finished, usedAtDone = true, tier.Used() },
	}
	r.Start()
	eng.RunUntil(sim.Seconds(60))
	if !finished {
		t.Fatal("runner did not finish")
	}
	if got := tier.bufs["c0"].Stats().Absorbed; got != 8<<20 {
		t.Fatalf("buffer absorbed %d, want all writes", got)
	}
	// The runner finishes at ingest speed, ahead of the drain.
	if usedAtDone <= 0 || tier.Used() != 0 {
		t.Fatalf("used %d at completion and %d after the drain, want > 0 then 0", usedAtDone, tier.Used())
	}
}

// TestBurstBufferInsulatesFromInterference is the headline behaviour of the
// paper's references [11]/[12]: under heavy PFS write contention, an app
// writing through the burst buffer sees near-local latency while a direct
// writer crawls.
func TestBurstBufferInsulatesFromInterference(t *testing.T) {
	run := func(useBB bool) sim.Time {
		eng, fs := newFS()
		// Heavy background writers saturating the OST caches.
		stop := false
		for i := 0; i < 3; i++ {
			gi := io500.New(io500.IorEasyWrite, io500.Params{
				Dir: "/bg" + string(rune('0'+i)), Ranks: 6, EasyFileBytes: 32 << 20})
			bg := &workload.Runner{FS: fs, Name: "bg", Nodes: []string{"c2", "c3", "c4"},
				Ranks: 6, Gen: gi, Loop: true}
			bg.Start()
		}
		var doneAt sim.Time
		g := io500.New(io500.IorEasyWrite, io500.Params{Dir: "/app", Ranks: 1, EasyFileBytes: 32 << 20})
		r := &workload.Runner{
			FS: fs, Name: "app", Nodes: []string{"c0"}, Ranks: 1, Gen: g,
			OnDone: func() { doneAt = eng.Now(); stop = true },
		}
		if useBB {
			r.WriteViaFor = NewTier(fs, hw.BurstBufferConfig{CapacityBytes: 64 << 20}).Route
		}
		r.Start()
		eng.RunUntil(sim.Seconds(300))
		_ = stop
		if doneAt == 0 {
			t.Fatal("app never finished")
		}
		return doneAt
	}
	direct := run(false)
	buffered := run(true)
	t.Logf("direct %.2fs vs burst-buffered %.2fs", sim.ToSeconds(direct), sim.ToSeconds(buffered))
	if float64(buffered) > 0.5*float64(direct) {
		t.Fatalf("burst buffer should insulate the burst: direct=%v buffered=%v",
			direct, buffered)
	}
}
