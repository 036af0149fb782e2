//go:build !unix

package main

import "time"

var processStart = time.Now()

// cpuSeconds falls back to wall time where getrusage is unavailable, so
// est_share is then a share of wall time.
func cpuSeconds() float64 { return time.Since(processStart).Seconds() }
