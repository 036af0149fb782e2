//go:build !scotchpoison

package sim

// Poison is false in normal builds; see poison.go.
const Poison = false
