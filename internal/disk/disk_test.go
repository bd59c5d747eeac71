package disk

import (
	"testing"
	"testing/quick"

	"quanterference/internal/sim"
)

func newTestDisk(t *testing.T) (*sim.Engine, *Disk) {
	t.Helper()
	eng := sim.NewEngine()
	return eng, New(eng, Config{Seed: 1})
}

// run submits sequentially: each request is issued when the previous
// completes, and the total elapsed time is returned.
func run(eng *sim.Engine, d *Disk, reqs []Request) sim.Time {
	var issue func(i int)
	issue = func(i int) {
		if i >= len(reqs) {
			return
		}
		r := reqs[i]
		r.Done = func() { issue(i + 1) }
		d.Submit(&r)
	}
	issue(0)
	eng.Run()
	return eng.Now()
}

func TestSequentialFasterThanRandom(t *testing.T) {
	// 64 sequential 256 KiB reads vs 64 scattered 256 KiB reads.
	const chunk = 512 // sectors = 256 KiB
	seq := make([]Request, 64)
	for i := range seq {
		seq[i] = Request{Op: Read, Sector: int64(i) * chunk, Sectors: chunk}
	}
	engA, da := sim.NewEngine(), (*Disk)(nil)
	da = New(engA, Config{Seed: 1})
	tSeq := run(engA, da, seq)

	rng := sim.NewRNG(2)
	rnd := make([]Request, 64)
	for i := range rnd {
		rnd[i] = Request{Op: Read, Sector: rng.Int63n(1<<31 - chunk), Sectors: chunk}
	}
	engB := sim.NewEngine()
	db := New(engB, Config{Seed: 1})
	tRnd := run(engB, db, rnd)

	if tRnd < 3*tSeq {
		t.Fatalf("random (%d) should be >=3x slower than sequential (%d)", tRnd, tSeq)
	}
	if da.Stats().SeqRequests < 63 {
		t.Fatalf("sequential run detected only %d streaming requests", da.Stats().SeqRequests)
	}
}

func TestInterleavedStreamsSeekBound(t *testing.T) {
	// Two interleaved sequential streams at distant locations: every request
	// should incur a seek — the core interference mechanism of Table I row 1.
	const chunk = 2048
	var reqs []Request
	base2 := int64(1) << 30
	for i := 0; i < 32; i++ {
		reqs = append(reqs,
			Request{Op: Read, Sector: int64(i) * chunk, Sectors: chunk},
			Request{Op: Read, Sector: base2 + int64(i)*chunk, Sectors: chunk},
		)
	}
	eng := sim.NewEngine()
	d := New(eng, Config{Seed: 3})
	run(eng, d, reqs)
	st := d.Stats()
	if st.SeqRequests > 1 {
		t.Fatalf("interleaved streams should all seek, got %d sequential", st.SeqRequests)
	}
	if st.SeekTime < st.BusyTime/2 {
		t.Fatalf("expected seek-bound service: seek=%d busy=%d", st.SeekTime, st.BusyTime)
	}
}

func TestTransferTimeMatchesRate(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, Config{Seed: 1, TransferBps: 100e6})
	// Sequential from head position 0: no positioning cost.
	done := false
	d.Submit(&Request{Op: Write, Sector: 0, Sectors: 2048, Done: func() { done = true }})
	eng.Run()
	if !done {
		t.Fatal("request never completed")
	}
	want := sim.Time(float64(2048*SectorSize) / 100e6 * float64(sim.Second))
	if eng.Now() != want {
		t.Fatalf("elapsed %d, want %d", eng.Now(), want)
	}
}

func TestHeadTracksLastRequest(t *testing.T) {
	eng, d := newTestDisk(t)
	d.Submit(&Request{Op: Read, Sector: 5000, Sectors: 100, Done: func() {}})
	eng.Run()
	if d.Head() != 5100 {
		t.Fatalf("head=%d, want 5100", d.Head())
	}
}

func TestStatsSectorCounters(t *testing.T) {
	eng, d := newTestDisk(t)
	reqs := []Request{
		{Op: Read, Sector: 0, Sectors: 64},
		{Op: Write, Sector: 64, Sectors: 128},
		{Op: Write, Sector: 192, Sectors: 8},
	}
	run(eng, d, reqs)
	st := d.Stats()
	if st.SectorsRead != 64 || st.SectorsWrite != 136 {
		t.Fatalf("sectors read=%d write=%d", st.SectorsRead, st.SectorsWrite)
	}
	if st.Requests != 3 {
		t.Fatalf("requests=%d", st.Requests)
	}
}

func TestSubmitWhileBusyPanics(t *testing.T) {
	eng, d := newTestDisk(t)
	d.Submit(&Request{Op: Read, Sector: 0, Sectors: 8, Done: func() {}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Submit(&Request{Op: Read, Sector: 8, Sectors: 8, Done: func() {}})
	eng.Run()
}

func TestOutOfRangePanics(t *testing.T) {
	eng, d := newTestDisk(t)
	_ = eng
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Submit(&Request{Op: Read, Sector: 1 << 31, Sectors: 1, Done: func() {}})
}

// Property: service time is positive and seek component never exceeds
// SeekMax + one revolution.
func TestPropertyServiceTimeBounds(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, Config{Seed: 9})
	rpm := 7200.0
	revolution := sim.Time(60.0 / rpm * float64(sim.Second))
	f := func(sectorRaw uint32, countRaw uint16) bool {
		sector := int64(sectorRaw) % (1<<31 - 1024)
		count := int64(countRaw%512) + 1
		r := &Request{Op: Read, Sector: sector, Sectors: count}
		total, pos := d.serviceTime(r)
		if total <= 0 || pos < 0 {
			return false
		}
		return pos <= 14*sim.Millisecond+revolution
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: busy time accumulates monotonically and equals the elapsed time
// for back-to-back submissions.
func TestPropertyBusyTimeMatchesElapsed(t *testing.T) {
	f := func(seeds uint8) bool {
		eng := sim.NewEngine()
		d := New(eng, Config{Seed: int64(seeds)})
		rng := sim.NewRNG(int64(seeds) + 100)
		reqs := make([]Request, 20)
		for i := range reqs {
			reqs[i] = Request{Op: Op(rng.Intn(2)), Sector: rng.Int63n(1 << 28), Sectors: rng.Int63n(255) + 1}
		}
		elapsed := run(eng, d, reqs)
		return d.Stats().BusyTime == elapsed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicReplay(t *testing.T) {
	mk := func() sim.Time {
		eng := sim.NewEngine()
		d := New(eng, Config{Seed: 77})
		rng := sim.NewRNG(5)
		reqs := make([]Request, 50)
		for i := range reqs {
			reqs[i] = Request{Op: Op(rng.Intn(2)), Sector: rng.Int63n(1 << 29), Sectors: 64}
		}
		return run(eng, d, reqs)
	}
	if a, b := mk(), mk(); a != b {
		t.Fatalf("non-deterministic: %d vs %d", a, b)
	}
}

func TestFailSlowInjection(t *testing.T) {
	run4x := func(factor float64) sim.Time {
		eng := sim.NewEngine()
		d := New(eng, Config{Seed: 1, TransferBps: 100e6})
		d.ScaleSlowdown(factor)
		done := false
		d.Submit(&Request{Op: Read, Sector: 0, Sectors: 2048, Done: func() { done = true }})
		eng.Run()
		if !done {
			t.Fatal("request lost")
		}
		return eng.Now()
	}
	healthy := run4x(1)
	degraded := run4x(4)
	if degraded != 4*healthy {
		t.Fatalf("fail-slow 4x gave %d vs healthy %d", degraded, healthy)
	}
	// Factors below 1 clamp to healthy.
	if run4x(0.1) != healthy {
		t.Fatal("sub-1 factor must clamp to 1")
	}
}

func TestFailSlowMidRun(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, Config{Seed: 2, TransferBps: 100e6})
	var times []sim.Time
	var issue func(i int)
	issue = func(i int) {
		if i >= 4 {
			return
		}
		start := eng.Now()
		d.Submit(&Request{Op: Read, Sector: int64(i) * 2048, Sectors: 2048, Done: func() {
			times = append(times, eng.Now()-start)
			if i == 1 {
				d.ScaleSlowdown(10) // degradation strikes mid-run
			}
			issue(i + 1)
		}})
	}
	issue(0)
	eng.Run()
	if times[3] < 5*times[1] {
		t.Fatalf("degradation not applied mid-run: %v", times)
	}
	if d.Slowdown() != 10 {
		t.Fatalf("slowdown=%f", d.Slowdown())
	}
}
