package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("clock %d, want 30", e.Now())
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestZeroDelayRunsAfterCurrentEvent(t *testing.T) {
	e := NewEngine()
	var got []string
	e.Schedule(1, func() {
		e.Schedule(0, func() { got = append(got, "child") })
		got = append(got, "parent")
	})
	e.Run()
	if len(got) != 2 || got[0] != "parent" || got[1] != "child" {
		t.Fatalf("got %v", got)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine().Schedule(-1, func() {})
}

func TestScheduleInPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var ran []Time
	for _, d := range []Time{5, 10, 15, 20} {
		d := d
		e.Schedule(d, func() { ran = append(ran, d) })
	}
	e.RunUntil(12)
	if len(ran) != 2 {
		t.Fatalf("ran %v, want 2 events", ran)
	}
	if e.Now() != 12 {
		t.Fatalf("clock %d, want 12", e.Now())
	}
	e.Run()
	if len(ran) != 4 {
		t.Fatalf("remaining events lost: %v", ran)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Fatalf("clock %d, want 100", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	n := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i+1), func() {
			n++
			if n == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if n != 3 {
		t.Fatalf("ran %d events after Stop, want 3", n)
	}
	if e.Pending() != 7 {
		t.Fatalf("pending %d, want 7", e.Pending())
	}
}

func TestSecondsRoundTrip(t *testing.T) {
	if Seconds(1.5) != 1500*Millisecond {
		t.Fatalf("Seconds(1.5) = %d", Seconds(1.5))
	}
	if ToSeconds(2*Second) != 2.0 {
		t.Fatalf("ToSeconds = %f", ToSeconds(2*Second))
	}
}

// Property: executing any batch of scheduled events always yields
// non-decreasing timestamps.
func TestPropertyMonotonicClock(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		last := Time(-1)
		ok := true
		for _, d := range delays {
			e.Schedule(Time(d), func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok && e.Pending() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the number of executed events equals the number scheduled.
func TestPropertyAllEventsRun(t *testing.T) {
	f := func(delays []uint8) bool {
		e := NewEngine()
		count := 0
		for _, d := range delays {
			e.Schedule(Time(d), func() { count++ })
		}
		e.Run()
		return count == len(delays) && e.Executed() == uint64(len(delays))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyQueueOrder drives seeded random At/Schedule calls — many
// equal timestamps, zero-delay scheduling from inside callbacks, and
// RunUntil/Step interleaved with scheduling — and checks the queue against
// a reference: events run in the stable (at, schedule order) sort of
// everything scheduled, each exactly once, with Pending and Executed
// consistent throughout.
func TestPropertyQueueOrder(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		type ev struct {
			at Time
			id int // schedule order
		}
		var scheduled []ev
		var ran []int
		runs := map[int]int{}
		check := func(where string) {
			t.Helper()
			if got, want := e.Executed(), uint64(len(ran)); got != want {
				t.Fatalf("seed %d %s: Executed %d, ran %d", seed, where, got, want)
			}
			if got, want := e.Pending(), len(scheduled)-len(ran); got != want {
				t.Fatalf("seed %d %s: Pending %d, want %d", seed, where, got, want)
			}
		}
		var schedule func(at Time, depth int)
		schedule = func(at Time, depth int) {
			id := len(scheduled)
			scheduled = append(scheduled, ev{at, id})
			fn := func() {
				if e.Now() != at {
					t.Fatalf("seed %d: event %d ran at %d, scheduled for %d", seed, id, e.Now(), at)
				}
				ran = append(ran, id)
				runs[id]++
				check("callback")
				for k := rng.Intn(3); depth < 4 && k > 0; k-- {
					if rng.Intn(2) == 0 {
						schedule(e.Now(), depth+1) // zero delay
					} else {
						schedule(e.Now()+Time(rng.Intn(4)), depth+1)
					}
				}
			}
			if rng.Intn(2) == 0 {
				e.At(at, fn)
			} else {
				e.Schedule(at-e.Now(), fn)
			}
		}
		for round := 0; round < 200; round++ {
			switch rng.Intn(4) {
			case 0, 1:
				// A narrow time range makes equal timestamps common.
				for k := rng.Intn(8); k >= 0; k-- {
					schedule(e.Now()+Time(rng.Intn(5)), 0)
				}
			case 2:
				until := e.Now() + Time(rng.Intn(6))
				e.RunUntil(until)
				if e.Now() != until {
					t.Fatalf("seed %d: RunUntil(%d) left the clock at %d", seed, until, e.Now())
				}
			case 3:
				e.Step()
			}
			check("driver")
		}
		e.Run()
		check("drained")

		want := append([]ev(nil), scheduled...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if len(ran) != len(want) {
			t.Fatalf("seed %d: ran %d events, scheduled %d", seed, len(ran), len(want))
		}
		for i := range want {
			if ran[i] != want[i].id {
				t.Fatalf("seed %d: event %d ran %d-th, want event %d", seed, ran[i], i, want[i].id)
			}
		}
		for id := range scheduled {
			if runs[id] != 1 {
				t.Fatalf("seed %d: event %d ran %d times", seed, id, runs[id])
			}
		}
	}
}

// TestEngineStepAllocs pins the pointer-free queue: with ~1k events pending,
// scheduling and dispatching one event allocates nothing.
func TestEngineStepAllocs(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 1024; i++ {
		e.At(Second+Time(i), fn)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		e.At(e.Now()+1, fn)
		e.Step()
	}); allocs != 0 {
		t.Fatalf("At+Step with %d pending allocates %v, want 0", e.Pending(), allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		e.Schedule(0, fn)
		e.Step()
	}); allocs != 0 {
		t.Fatalf("Schedule+Step allocates %v, want 0", allocs)
	}
	if e.Pending() != 1024 {
		t.Fatalf("pending %d, want 1024", e.Pending())
	}
}
