// Package lib holds one export of each kind the unused check judges.
package lib

// UsedByCode is called from cmd/tool's non-test code.
func UsedByCode() int { return Internal() }

// Internal is called from this package's non-test code.
func Internal() int { return 1 }

// Fixture is called only from another package's tests.
func Fixture() int { return 2 }

// OnlyOwnTests is called only from this package's internal tests.
func OnlyOwnTests() int { return 3 }

// ExtOnly is called only from this package's external tests.
func ExtOnly() int { return 4 }

// Orphan is mentioned only by its own methods.
type Orphan struct{ n int }

// Self returns the receiver.
func (o *Orphan) Self() *Orphan { return o }

// Counter is referenced from cmd/tool, so only its methods are judged.
type Counter struct{ n int }

// OnlyTests is called only from this package's internal and external
// tests.
func (c *Counter) OnlyTests() int { return c.n }

// Countdown calls itself, and otherwise only this package's tests call
// it: a selection inside its own body does not count.
func (c *Counter) Countdown(n int) int {
	if n == 0 {
		return c.n
	}
	return c.Countdown(n - 1)
}

// Size is called through an interface in cmd/tool's non-test code.
func (c *Counter) Size() int { return c.n }

// FromOtherTest is called only from cmd/tool's test.
func (c *Counter) FromOtherTest() int { return c.n }

// String is exempt: a standard interface fixes its name.
func (c *Counter) String() string { return "counter" }
