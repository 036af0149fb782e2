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
	if f := e.Frame(); f != nil {
		t.Fatalf("empty free list returned a %d-byte frame", cap(f))
	}
	b := append(make([]byte, 0, 128), 1, 2, 3)
	var got string
	e.DeferBytes(e, time.Microsecond, func(_ any, _ int, f []byte) { got = string(f) }, nil, 0, b)
	e.Run()
	if got != "\x01\x02\x03" {
		t.Fatalf("callback read %q", got)
	}
	f := e.Frame()
	if len(f) != 0 || cap(f) != 128 || &f[:1][0] != &b[0] {
		t.Fatalf("recycled frame len %d cap %d, want the delivered 128-byte buffer, emptied", len(f), cap(f))
	}
	if e.Frame() != nil {
		t.Fatal("one delivery recycled two frames")
	}
}

// TestFrameListCapped: the free list keeps at most maxFreeBytes of
// frames, hands out the newest first whatever size is asked for, and
// counts its bytes back to zero once emptied.
func TestFrameListCapped(t *testing.T) {
	e := New(1)
	for i := 0; i < maxFreeBytes/64+10; i++ {
		e.DeferBytes(e, 0, noopFrame, nil, 0, make([]byte, 0, 64))
	}
	e.Run()
	if len(e.frames) != maxFreeBytes/64 || e.frameBytes != maxFreeBytes {
		t.Fatalf("list holds %d frames of %d bytes, want %d of %d",
			len(e.frames), e.frameBytes, maxFreeBytes/64, maxFreeBytes)
	}
	for e.Frame() != nil {
	}
	if e.frameBytes != 0 {
		t.Fatalf("emptied list still counts %d bytes", e.frameBytes)
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
	if src.Frame() != nil {
		t.Fatal("the sending lane's list got the frame")
	}
	if dst.Frame() == nil {
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
		e.DeferBytes(e, time.Microsecond, noopFrame, nil, 0, append(e.Frame(), "frame"...))
		e.Run()
	})
	if avg != 0 {
		t.Fatalf("frame round trip allocates %.1f objects, want 0", avg)
	}
}
