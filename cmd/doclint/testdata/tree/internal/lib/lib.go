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
