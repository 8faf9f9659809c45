//go:build race

package sim_test

// raceEnabled reports whether the race detector is compiled in: it
// drops sync.Pool items at random, so zero-alloc pins skip under it.
const raceEnabled = true
