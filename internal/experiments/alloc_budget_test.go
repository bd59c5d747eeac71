package experiments

import (
	"runtime"
	"testing"

	"quanterference/internal/core"
	"quanterference/internal/obs"
	"quanterference/internal/workload/io500"
)

// collectionAllocBudget is about 15% above the bytes one scale-0.08,
// one-rep IO500 collection allocates (7 tasks × 14 runs). Exact-size record
// and op buffers, lazily seeded RNGs, uninstrumented collection runs and the
// intrusive MDS cache brought it there from about twice as much; a change
// that brings any of that back fails here.
const collectionAllocBudget = 20_500_000

// TestCollectionAllocBudget bounds the bytes a smoke-scale IO500 collection
// allocates, the garbage collector's workload during every study.
func TestCollectionAllocBudget(t *testing.T) {
	cfg := DatasetConfig{Scale: 0.08, Reps: 1, Seed: 1}
	IO500Dataset(cfg) // one-time allocations (pools, lazily built tables) do not count
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	IO500Dataset(cfg)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("collection allocated %.2f MB (budget %.2f MB)", float64(got)/1e6, float64(collectionAllocBudget)/1e6)
	if raceEnabled {
		return // the budget holds for the uninstrumented allocator only
	}
	if got > collectionAllocBudget {
		t.Fatalf("collection allocated %d bytes, budget %d", got, collectionAllocBudget)
	}
}

// The exact work the TestCollectionAllocBudget fixture simulates. The
// simulator is deterministic, so these totals never vary between runs (the
// par fan-out included); a change that moves one changes the work every
// collection does. Re-pin only with a recorded reason.
const (
	collectionEngineEvents = 424_663
	collectionNetsimFlows  = 131_086
	collectionDiskRequests = 40_552
)

// TestCollectionWorkPins runs the TestCollectionAllocBudget fixture on an
// obs sink and pins its engine events, netsim flows and disk requests. The
// instrumented collection must build the same dataset as IO500Dataset, so
// the pins describe the real fixture.
func TestCollectionWorkPins(t *testing.T) {
	cfg := DatasetConfig{Scale: 0.08, Reps: 1, Seed: 1}
	sink := obs.New()
	cfg.applyDefaults()
	targets := io500Targets("/tgt-", io500Params(cfg.Scale), io500.AllTasks()...)
	ds := collectTargets(cfg, targets, InterferenceSweep(cfg.Scale), core.WithSink(sink))
	if got, want := ds.Digest(), IO500Dataset(cfg).Digest(); got != want {
		t.Fatalf("instrumented collection digest %s, IO500Dataset %s", got, want)
	}
	snap := sink.Snapshot()
	for _, pin := range []struct {
		component, name string
		want            uint64
	}{
		{"engine", "events_executed", collectionEngineEvents},
		{"netsim", "flows", collectionNetsimFlows},
		{"disk", "requests", collectionDiskRequests},
	} {
		if got := snap.CounterTotal(pin.component, pin.name); got != pin.want {
			t.Errorf("%s/%s = %d, want %d", pin.component, pin.name, got, pin.want)
		}
	}
}
