package main

import (
	"testing"

	"fixture/internal/lib"
)

func TestFixture(t *testing.T) {
	if lib.Fixture() != 2 {
		t.Fatal("fixture")
	}
}
