package experiments

import (
	"runtime"
	"testing"
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
