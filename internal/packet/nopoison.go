//go:build !scotchpoison

package packet

// poison is false in normal builds; see poison.go.
const poison = false
