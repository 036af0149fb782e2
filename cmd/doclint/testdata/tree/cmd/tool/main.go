// Command tool is the fixture's non-test caller.
package main

import (
	"fixture/internal/lib"
	"fixture/internal/nocomment"
	"fixture/internal/scotch"
)

// sizer is satisfied by lib.Counter; calling through it is a use of Size.
type sizer interface{ Size() int }

func main() {
	nocomment.Used()
	var s sizer = &lib.Counter{}
	var g lib.Gauge
	g.Set(1)
	_ = lib.UsedByCode() + scotch.Undocumented() + scotch.Documented() + s.Size()
}
