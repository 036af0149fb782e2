//go:build scotchpoison

package sim

// Poison is true in builds with the scotchpoison tag. The engine then
// overwrites every frame it takes back with 0xAB, and receivers zero their
// scratch messages after each callback, so code that keeps a frame, a
// decoded message or a parsed packet past its callback without copying
// reads garbage (DESIGN.md §14, "The control-channel frame").
const Poison = true
