// Command bench is a harness outside cmd/ and examples/: what only it
// links is noted, not flagged.
package main

import "fixture/internal/lib"

func main() { _ = lib.BenchOnly() + lib.Internal() }
