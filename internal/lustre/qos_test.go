package lustre

import (
	"testing"
	"testing/quick"

	"quanterference/internal/hw"
	"quanterference/internal/netsim"
	"quanterference/internal/sim"
)

// writeStream writes total bytes in 1 MiB ops and returns the finish time.
func writeStream(eng *sim.Engine, c *Client, path string, total int64) sim.Time {
	var finished sim.Time
	c.Create(path, 1, func(h *Handle) {
		var next func(off int64)
		next = func(off int64) {
			if off >= total {
				finished = eng.Now()
				return
			}
			c.Write(h, off, 1<<20, func() { next(off + 1<<20) })
		}
		next(0)
	})
	eng.RunUntil(sim.Seconds(600))
	return finished
}

func TestRateLimitCapsThroughput(t *testing.T) {
	eng := sim.NewEngine()
	net := netsim.New(eng, netsim.Config{})
	fs := New(eng, net, hw.Profile{})
	c := fs.Client("c0")
	c.SetRateLimit(10e6) // 10 MB/s
	finished := writeStream(eng, c, "/limited", 32<<20)
	if finished == 0 {
		t.Fatal("stream never finished")
	}
	mbps := float64(32<<20) / 1e6 / sim.ToSeconds(finished)
	if mbps > 12 || mbps < 8 {
		t.Fatalf("throughput %.1f MB/s, want ~10", mbps)
	}
}

func TestRateLimitRemovalRestoresSpeed(t *testing.T) {
	run := func(throttleFirst bool) sim.Time {
		eng := sim.NewEngine()
		net := netsim.New(eng, netsim.Config{})
		fs := New(eng, net, hw.Profile{})
		c := fs.Client("c0")
		if throttleFirst {
			c.SetRateLimit(5e6)
			// Remove the limit at t=1s.
			eng.Schedule(sim.Second, func() { c.SetRateLimit(0) })
		}
		return writeStream(eng, c, "/f", 64<<20)
	}
	unthrottled := run(false)
	recovered := run(true)
	if recovered < unthrottled {
		t.Fatal("impossible: throttled run faster")
	}
	// ~1 s throttled at 5 MB/s, then full speed: should finish well under
	// a fully throttled run (64 MiB at 5 MB/s ≈ 13.4 s).
	if recovered > sim.Seconds(3) {
		t.Fatalf("limit removal did not restore speed: %.2fs", sim.ToSeconds(recovered))
	}
}

func TestMetadataUnaffectedByRateLimit(t *testing.T) {
	eng := sim.NewEngine()
	net := netsim.New(eng, netsim.Config{})
	fs := New(eng, net, hw.Profile{})
	c := fs.Client("c0")
	c.SetRateLimit(1) // 1 byte/s: data would be frozen
	done := 0
	var loop func(i int)
	loop = func(i int) {
		if i >= 20 {
			return
		}
		c.Create(pathQ(i), 1, func(h *Handle) {
			c.Close(h, func() { done++; loop(i + 1) })
		})
	}
	loop(0)
	eng.RunUntil(sim.Seconds(5))
	if done != 20 {
		t.Fatalf("metadata ops blocked by data rate limit: %d/20", done)
	}
}

func pathQ(i int) string { return "/qos/f" + string(rune('a'+i%26)) + string(rune('0'+i/26)) }

func TestRateLimitedReporting(t *testing.T) {
	eng := sim.NewEngine()
	net := netsim.New(eng, netsim.Config{})
	fs := New(eng, net, hw.Profile{})
	c := fs.Client("c0")
	if c.RateLimited() {
		t.Fatal("fresh client reports limited")
	}
	c.SetRateLimit(1e6)
	if !c.RateLimited() {
		t.Fatal("limit not reported")
	}
	c.SetRateLimit(0)
	if c.RateLimited() {
		t.Fatal("limit removal not reported")
	}
	_ = eng
}

func TestBucketFIFOUnderPressure(t *testing.T) {
	eng := sim.NewEngine()
	b := newTokenBucket(eng)
	b.setRate(1e6) // 1 MB/s
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		b.acquire(2<<20, func() { order = append(order, i) })
	}
	eng.RunUntil(sim.Seconds(30))
	if len(order) != 5 {
		t.Fatalf("granted %d/5", len(order))
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("grant order %v", order)
		}
	}
}

// Property: long-term admitted throughput matches the configured rate for
// any request-size mix, including requests larger than the burst capacity.
func TestPropertyBucketRateConservation(t *testing.T) {
	f := func(sizes []uint16, rateRaw uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 30 {
			sizes = sizes[:30]
		}
		rate := float64(rateRaw%20+1) * 1e6
		eng := sim.NewEngine()
		b := newTokenBucket(eng)
		b.setRate(rate)
		var total, maxN int64
		var lastGrant sim.Time
		granted := 0
		for _, sz := range sizes {
			n := int64(sz)*1000 + 1
			total += n
			if n > maxN {
				maxN = n
			}
			b.acquire(n, func() { granted++; lastGrant = eng.Now() })
		}
		eng.RunUntil(sim.Seconds(3600))
		if granted != len(sizes) {
			return false // starvation
		}
		// The last grant must not come before the rate allows. Slack: one
		// burst (capacity) plus one request of borrowing debt (oversized
		// requests are granted at a full bucket and pay afterwards).
		earliest := (float64(total) - b.capacity - float64(maxN)) / rate
		if earliest > 0 && sim.ToSeconds(lastGrant) < earliest-1e-6 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
