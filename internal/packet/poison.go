//go:build scotchpoison

package packet

// poison is true in builds with the scotchpoison tag: Release then
// overwrites a packet instead of pooling it (DESIGN.md §14, "The data-plane
// packet").
const poison = true
