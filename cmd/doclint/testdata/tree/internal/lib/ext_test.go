package lib_test

import (
	"testing"

	"fixture/internal/lib"
)

func TestExtOnly(t *testing.T) {
	if lib.ExtOnly() != 4 {
		t.Fatal("fixture")
	}
}
