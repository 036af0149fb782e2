// Package lib holds one case of each kind the unused checks judge.
package lib

// UsedByCode is called from cmd/tool's non-test code.
func UsedByCode() int {
	r := &ring[struct{ A [2]int }]{}
	r.push(struct{ A [2]int }{})
	n := 0
	each(func() { n += visit() })
	return Internal() + n + len(r.buf)
}

// Internal is called from this package's non-test code.
func Internal() int { return 1 }

// Fixture is called only from another package's tests.
func Fixture() int { return 2 }

// OnlyOwnTests is called only from this package's internal tests.
func OnlyOwnTests() int { return 3 }

// ExtOnly is called only from this package's external tests.
func ExtOnly() int { return 4 }

// helper is unexported and called only from this package's tests.
func helper() int { return 5 }

// BenchOnly is called only from the bench harness.
func BenchOnly() int { return 6 }

// ring is generic; UsedByCode instantiates it with a struct shape, whose
// symbol holds spaces and nested brackets.
type ring[T any] struct{ buf []T }

func (r *ring[T]) push(v T) { r.buf = append(r.buf, v) }

// each runs fn.
func each(fn func()) { fn() }

// visit is called only from the closure UsedByCode hands to each.
func visit() int { return 1 }

// Orphan is mentioned only by its own methods and by lib_test.go.
type Orphan struct{ n int }

// Self is called only from lib_test.go.
func (o *Orphan) Self() *Orphan { return o }

// Counter is referenced from cmd/tool, so only its methods are judged.
type Counter struct{ n int }

// OnlyTests is called only from this package's internal and external
// tests.
func (c *Counter) OnlyTests() int { return c.n }

// Size is called through an interface in cmd/tool's non-test code.
func (c *Counter) Size() int { return c.n }

// FromOtherTest is called only from cmd/tool's test.
func (c *Counter) FromOtherTest() int { return c.n }

// Gauge is used by cmd/tool.
type Gauge struct{ n int }

// Set is called from cmd/tool.
func (g *Gauge) Set(n int) { g.n = n }

// Size is called only from lib_test.go, though Counter.Size, which
// cmd/tool calls, shares its name.
func (g *Gauge) Size() int { return g.n }

// Port is converted to an interface by cmd/tool, which makes the types
// of its fields, Tunnel among them, reachable through reflection.
type Port struct{ T *Tunnel }

// Tunnel is reachable only from Port's field.
type Tunnel struct{ name string }

// Name is called only from lib_test.go. cmd/tool calls Node.Name through
// an interface, so the linker keeps this method too, by its name.
func (t *Tunnel) Name() string { return t.name }

// Node is converted to cmd/tool's namer.
type Node struct{ name string }

// Name is called through an interface in cmd/tool's non-test code.
func (n *Node) Name() string { return n.name }
