//go:build !race

package scotch

const raceEnabled = false
