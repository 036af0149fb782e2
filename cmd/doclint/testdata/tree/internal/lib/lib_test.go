package lib

import (
	"testing"

	"fixture/internal/testsupport"
)

func TestOnlyOwnTests(t *testing.T) {
	c := &Counter{}
	if OnlyOwnTests() != 3 || helper() != 5 || (&Orphan{}).Self() == nil || c.OnlyTests() != 0 ||
		(&Gauge{}).Size() != 0 || (&Tunnel{}).Name() != "" || testsupport.Helper() != 7 {
		t.Fatal("fixture")
	}
}
