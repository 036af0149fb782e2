package lib

import "testing"

func TestOnlyOwnTests(t *testing.T) {
	if OnlyOwnTests() != 3 || (&Orphan{}).Self() == nil {
		t.Fatal("fixture")
	}
}
