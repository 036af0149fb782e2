// Command tool is the fixture's non-test caller.
package main

import (
	"fixture/internal/lib"
	"fixture/internal/nocomment"
	"fixture/internal/scotch"
)

func main() {
	nocomment.Used()
	_ = lib.UsedByCode() + scotch.Undocumented() + scotch.Documented()
}
