//go:build race

package ofnet

// raceEnabled is true under the race detector, whose instrumentation
// allocates, so the alloc pins skip.
const raceEnabled = true
