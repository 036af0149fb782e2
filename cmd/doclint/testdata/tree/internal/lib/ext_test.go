package lib_test

import (
	"testing"

	"fixture/internal/lib"
)

func TestExtOnly(t *testing.T) {
	if lib.ExtOnly() != 4 || (&lib.Counter{}).OnlyTests() != 0 {
		t.Fatal("fixture")
	}
}
