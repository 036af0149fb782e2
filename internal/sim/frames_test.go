package sim

import (
	"testing"
	"time"
)

func noopFrame(any, int, []byte) {}

// TestDeferBytesRecyclesFrame: a delivered frame comes back from Frame
// emptied, with its storage intact, and an empty list answers nil.
func TestDeferBytesRecyclesFrame(t *testing.T) {
	e := New(1)
	if f := e.Frame(100); f != nil {
		t.Fatalf("empty free list returned a %d-byte frame", cap(f))
	}
	b := append(make([]byte, 0, 128), 1, 2, 3)
	var got string
	e.DeferBytes(e, time.Microsecond, func(_ any, _ int, f []byte) { got = string(f) }, nil, 0, b)
	e.Run()
	if got != "\x01\x02\x03" {
		t.Fatalf("callback read %q", got)
	}
	f := e.Frame(100)
	if len(f) != 0 || cap(f) != 128 || &f[:1][0] != &b[0] {
		t.Fatalf("recycled frame len %d cap %d, want the delivered 128-byte buffer, emptied", len(f), cap(f))
	}
	if e.Frame(100) != nil {
		t.Fatal("one delivery recycled two frames")
	}
}

// TestFrameClassesApart: a small message never takes a large frame, a
// large message never takes a small one or a large one too small for it,
// and each class keeps at most its byte bound.
func TestFrameClassesApart(t *testing.T) {
	e := New(1)
	for i := 0; i < 8; i++ {
		e.DeferBytes(e, 0, noopFrame, nil, 0, make([]byte, 0, maxFreeLargeBytes/3))
	}
	for i := 0; i < maxFreeSmallBytes/64+10; i++ {
		e.DeferBytes(e, 0, noopFrame, nil, 0, make([]byte, 0, 64))
	}
	e.Run()
	if len(e.large.frames) != 3 || len(e.small.frames) != maxFreeSmallBytes/64 {
		t.Fatalf("lists hold %d large and %d small frames, want 3 and %d",
			len(e.large.frames), len(e.small.frames), maxFreeSmallBytes/64)
	}
	if f := e.Frame(100); cap(f) != 64 {
		t.Fatalf("small message got a %d-byte frame", cap(f))
	}
	if f := e.Frame(maxFreeLargeBytes); f != nil {
		t.Fatalf("large message got a %d-byte frame too small for it", cap(f))
	}
	if f := e.Frame(largeFrame); cap(f) != maxFreeLargeBytes/3 {
		t.Fatalf("large message got a %d-byte frame", cap(f))
	}
	for e.Frame(largeFrame) != nil {
	}
	for e.Frame(1) != nil {
	}
	if e.large.bytes != 0 || e.small.bytes != 0 {
		t.Fatalf("emptied lists still count %d and %d bytes", e.large.bytes, e.small.bytes)
	}
}

// TestFrameRecycledOnReceivingLane: in a sharded run a frame sent across
// lanes is recycled onto the list of the lane that ran the callback, so
// each list is touched by its own lane's goroutine only.
func TestFrameRecycledOnReceivingLane(t *testing.T) {
	sh := NewSharded(1, 2, time.Microsecond, 2)
	src, dst := sh.Lane(0), sh.Lane(1)
	src.Schedule(0, func() {
		src.DeferBytes(dst, time.Microsecond, noopFrame, nil, 0, make([]byte, 0, 64))
	})
	sh.RunUntil(time.Millisecond)
	if src.Frame(64) != nil {
		t.Fatal("the sending lane's list got the frame")
	}
	if dst.Frame(64) == nil {
		t.Fatal("the receiving lane's list did not get the frame")
	}
}

// TestFrameRoundTripAllocFree: once the list holds a frame, taking it,
// filling it and delivering it allocates nothing.
func TestFrameRoundTripAllocFree(t *testing.T) {
	e := New(1)
	e.DeferBytes(e, 0, noopFrame, nil, 0, make([]byte, 0, 64))
	e.Run()
	avg := testing.AllocsPerRun(1000, func() {
		e.DeferBytes(e, time.Microsecond, noopFrame, nil, 0, append(e.Frame(5), "frame"...))
		e.Run()
	})
	if avg != 0 {
		t.Fatalf("frame round trip allocates %.1f objects, want 0", avg)
	}
}
