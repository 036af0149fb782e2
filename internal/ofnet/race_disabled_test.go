//go:build !race

package ofnet

const raceEnabled = false
