// Command tool is the fixture's non-test caller.
package main

import (
	"fixture/internal/lib"
	"fixture/internal/nocomment"
	"fixture/internal/scotch"
)

// sizer is satisfied by lib.Counter; calling through it is a use of Size.
type sizer interface{ Size() int }

// namer is satisfied by lib.Node; calling through it is a use of Name.
type namer interface{ Name() string }

// name calls Name through the interface: with inlining off, the call
// cannot be devirtualized.
func name(n namer) string { return n.Name() }

// sink holds a lib.Port converted to an interface.
var sink any

func main() {
	nocomment.Used()
	var s sizer = &lib.Counter{}
	var g lib.Gauge
	g.Set(1)
	sink = &lib.Port{}
	_ = lib.UsedByCode() + scotch.Undocumented() + scotch.Documented() + s.Size() + len(name(&lib.Node{}))
}
