//go:build scotchpoison

package sim

import "testing"

// TestRecycledFramePoisoned: in a poison build a frame is overwritten with
// 0xAB as soon as its callback returns, so a receiver that kept it reads
// garbage.
func TestRecycledFramePoisoned(t *testing.T) {
	e := New(1)
	var kept []byte
	e.DeferBytes(e, 0, func(_ any, _ int, b []byte) { kept = b }, nil, 0, []byte("abc"))
	e.Run()
	if string(kept) != "\xab\xab\xab" {
		t.Fatalf("kept frame reads % x after its callback, want ab ab ab", kept)
	}
}
