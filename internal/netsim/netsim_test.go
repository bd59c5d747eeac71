package netsim

import (
	"errors"
	"testing"
	"testing/quick"

	"quanterference/internal/sim"
)

func newNet(names ...string) (*sim.Engine, *Network) {
	eng := sim.NewEngine()
	n := New(eng, Config{})
	for _, name := range names {
		n.AddNode(name, 0)
	}
	return eng, n
}

// transferNamed is Transfer between nodes given by name.
func transferNamed(n *Network, src, dst string, bytes int64, done func()) {
	n.Transfer(n.Endpoint(src), n.Endpoint(dst), bytes, done)
}

// activeRates lists every active flow's rate in creation order.
func activeRates(n *Network) []float64 {
	out := make([]float64, 0, len(n.active))
	for _, i := range n.active {
		out = append(out, n.flows[i].rate)
	}
	return out
}

func TestSingleTransferTime(t *testing.T) {
	eng, n := newNet("a", "b")
	done := sim.Time(0)
	transferNamed(n, "a", "b", 125_000_000, func() { done = eng.Now() }) // 1 s at 125 MB/s
	eng.Run()
	want := sim.Second + 100*sim.Microsecond
	if diff := done - want; diff < -sim.Millisecond || diff > sim.Millisecond {
		t.Fatalf("transfer finished at %d, want ~%d", done, want)
	}
}

func TestZeroByteTransferCostsLatency(t *testing.T) {
	eng, n := newNet("a", "b")
	done := sim.Time(0)
	transferNamed(n, "a", "b", 0, func() { done = eng.Now() })
	eng.Run()
	if done != 100*sim.Microsecond {
		t.Fatalf("control message at %d, want 100us", done)
	}
}

func TestTwoFlowsShareReceiverNIC(t *testing.T) {
	// Two senders to one receiver: each gets half the receiver's downlink,
	// so both take ~2x the solo time.
	eng, n := newNet("a", "b", "dst")
	var times []sim.Time
	transferNamed(n, "a", "dst", 125_000_000, func() { times = append(times, eng.Now()) })
	transferNamed(n, "b", "dst", 125_000_000, func() { times = append(times, eng.Now()) })
	eng.Run()
	for _, tt := range times {
		if tt < sim.Seconds(1.9) || tt > sim.Seconds(2.1) {
			t.Fatalf("shared transfer finished at %v, want ~2s", sim.ToSeconds(tt))
		}
	}
}

func TestIndependentPathsDontInterfere(t *testing.T) {
	eng, n := newNet("a", "b", "c", "d")
	var times []sim.Time
	transferNamed(n, "a", "b", 125_000_000, func() { times = append(times, eng.Now()) })
	transferNamed(n, "c", "d", 125_000_000, func() { times = append(times, eng.Now()) })
	eng.Run()
	for _, tt := range times {
		if tt > sim.Seconds(1.1) {
			t.Fatalf("independent transfer slowed: %v s", sim.ToSeconds(tt))
		}
	}
}

func TestShortFlowFinishesEarlyAndRatesRecover(t *testing.T) {
	// A long flow shares with a short one; after the short flow drains the
	// long one speeds back up, so total time < 2x solo.
	eng, n := newNet("a", "b", "dst")
	var longDone sim.Time
	transferNamed(n, "a", "dst", 125_000_000, func() { longDone = eng.Now() })
	transferNamed(n, "b", "dst", 12_500_000, func() {}) // 10% of the long flow
	eng.Run()
	// Long flow: shares for 0.2s (drains 12.5MB), then full rate for the
	// remaining 100MB: ~0.2 + 0.8 = 1.1s total.
	if longDone < sim.Seconds(1.05) || longDone > sim.Seconds(1.2) {
		t.Fatalf("long flow finished at %v, want ~1.1s", sim.ToSeconds(longDone))
	}
}

func TestHeterogeneousNICBottleneck(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, Config{})
	n.AddNode("fast", 250e6)
	n.AddNode("slow", 25e6)
	var done sim.Time
	transferNamed(n, "fast", "slow", 25_000_000, func() { done = eng.Now() })
	eng.Run()
	if done < sim.Seconds(0.95) || done > sim.Seconds(1.1) {
		t.Fatalf("bottleneck not respected: %v s", sim.ToSeconds(done))
	}
}

func TestManyToOneFairness(t *testing.T) {
	// 5 senders to one server: aggregate goodput equals the server NIC,
	// finishing ~5x solo time.
	eng, n := newNet("s1", "s2", "s3", "s4", "s5", "oss")
	finished := 0
	var last sim.Time
	for _, s := range []string{"s1", "s2", "s3", "s4", "s5"} {
		transferNamed(n, s, "oss", 25_000_000, func() {
			finished++
			last = eng.Now()
		})
	}
	eng.Run()
	if finished != 5 {
		t.Fatalf("finished=%d", finished)
	}
	if last < sim.Seconds(0.95) || last > sim.Seconds(1.1) {
		t.Fatalf("5x25MB into 125MB/s NIC took %v s, want ~1s", sim.ToSeconds(last))
	}
}

func TestNodeStats(t *testing.T) {
	eng, n := newNet("a", "b")
	transferNamed(n, "a", "b", 1000, func() {})
	transferNamed(n, "a", "b", 500, func() {})
	eng.Run()
	if st := n.Stats("a"); st.BytesSent != 1500 || st.BytesRecv != 0 {
		t.Fatalf("a stats %+v", st)
	}
	if st := n.Stats("b"); st.BytesRecv != 1500 {
		t.Fatalf("b stats %+v", st)
	}
}

func TestUnknownNodePanics(t *testing.T) {
	_, n := newNet("a")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	transferNamed(n, "a", "ghost", 10, func() {})
}

func TestDuplicateNodePanics(t *testing.T) {
	_, n := newNet("a")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.AddNode("a", 0)
}

// Property: all transfers complete, and total received bytes are conserved.
func TestPropertyAllTransfersComplete(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 40 {
			sizes = sizes[:40]
		}
		eng, n := newNet("c1", "c2", "c3", "srv")
		rng := sim.NewRNG(42)
		clients := []string{"c1", "c2", "c3"}
		completed := 0
		for _, sz := range sizes {
			src := clients[rng.Intn(3)]
			bytes := int64(sz) * 100
			delay := sim.Time(rng.Intn(1000)) * sim.Microsecond
			eng.Schedule(delay, func() {
				transferNamed(n, src, "srv", bytes, func() { completed++ })
			})
		}
		eng.Run()
		return completed == len(sizes) && n.ActiveFlows() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: a transfer sharing with background flows never finishes sooner
// than it would alone.
func TestPropertyContentionNeverSpeedsUp(t *testing.T) {
	solo := func() sim.Time {
		eng, n := newNet("a", "b", "dst")
		var done sim.Time
		transferNamed(n, "a", "dst", 50_000_000, func() { done = eng.Now() })
		eng.Run()
		return done
	}()
	f := func(bgRaw uint8) bool {
		bg := int64(bgRaw)*100_000 + 1000
		eng, n := newNet("a", "b", "dst")
		var done sim.Time
		transferNamed(n, "a", "dst", 50_000_000, func() { done = eng.Now() })
		transferNamed(n, "b", "dst", bg, func() {})
		eng.Run()
		return done >= solo
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicReplay(t *testing.T) {
	runOnce := func() []sim.Time {
		eng, n := newNet("c1", "c2", "c3", "srv")
		var times []sim.Time
		for i := 0; i < 10; i++ {
			sz := int64(1_000_000 * (i + 1))
			src := []string{"c1", "c2", "c3"}[i%3]
			transferNamed(n, src, "srv", sz, func() { times = append(times, eng.Now()) })
		}
		eng.Run()
		return times
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatal("different completion counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestSetBandwidthScaleErrors(t *testing.T) {
	eng, n := newNet("a", "b")
	if err := n.SetBandwidthScale("a", 0); !errors.Is(err, ErrBadScale) {
		t.Errorf("scale 0: err = %v, want ErrBadScale", err)
	}
	if err := n.SetBandwidthScale("a", -0.5); !errors.Is(err, ErrBadScale) {
		t.Errorf("scale -0.5: err = %v, want ErrBadScale", err)
	}
	if err := n.SetBandwidthScale("a", 1.5); !errors.Is(err, ErrBadScale) {
		t.Errorf("scale 1.5: err = %v, want ErrBadScale", err)
	}
	if err := n.SetBandwidthScale("ghost", 0.5); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown node: err = %v, want ErrUnknownNode", err)
	}
	if err := n.SetBandwidthScale("a", 0.5); err != nil {
		t.Errorf("valid scale: err = %v", err)
	}
	// A degraded NIC slows an in-range transfer by the scale factor.
	done := sim.Time(0)
	transferNamed(n, "a", "b", 125_000_000, func() { done = eng.Now() }) // 1 s healthy
	eng.Run()
	if done < sim.Seconds(1.9) || done > sim.Seconds(2.1) {
		t.Fatalf("transfer on half-speed NIC finished at %v, want ~2s", sim.ToSeconds(done))
	}
}

// TestTransferSteadyStateAllocs pins the pooled completion timers: once the
// pools are warm, re-arming the completion check allocates nothing — for a
// lone flow, and for two flows sharing a NIC, which leaves a superseded
// timer in the queue.
func TestTransferSteadyStateAllocs(t *testing.T) {
	eng, n := newNet("a", "b", "c")
	a, b, c := n.Endpoint("a"), n.Endpoint("b"), n.Endpoint("c")
	done := func() {}
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"one flow", func() {
			n.Transfer(a, c, 1<<20, done)
			eng.Run()
		}},
		{"shared NIC", func() {
			n.Transfer(a, c, 1<<20, done)
			n.Transfer(b, c, 1<<19, done)
			eng.Run()
		}},
	} {
		if allocs := testing.AllocsPerRun(100, tc.run); allocs != 0 {
			t.Errorf("%s: %v allocations per transfer, want 0", tc.name, allocs)
		}
	}
}
