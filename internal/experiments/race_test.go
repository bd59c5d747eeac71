//go:build race

package experiments

// raceEnabled reports a -race build, whose instrumentation (sync.Pool drops
// entries at random, for one) changes how much the program allocates.
const raceEnabled = true
