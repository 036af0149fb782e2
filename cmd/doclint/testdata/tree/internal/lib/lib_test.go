package lib

import "testing"

func TestOnlyOwnTests(t *testing.T) {
	c := &Counter{}
	if OnlyOwnTests() != 3 || (&Orphan{}).Self() == nil || c.OnlyTests() != 0 || c.Countdown(2) != 0 {
		t.Fatal("fixture")
	}
}
