//go:build race

package scotch

// raceEnabled is true under the race detector. Its sync.Pool then drops
// one Put in four at random, so a released packet's box is not always
// there for the next birth, and the alloc pins that rely on it skip.
const raceEnabled = true
