package sim

// An engine keeps two free lists of control-channel frames, one per size
// class, so that the elephant poll's flow-stats parts (~38 KB each, all
// sent at one instant) and the stream of small messages (~100–250 B, the
// expiry sweep's Flow-Removed notices in bursts of thousands) never take
// each other's frames. Reuse needs only as many frames as are in flight at
// once; the byte bounds are what hold down the heap the lists keep.
const (
	largeFrame        = 4 << 10   // frames at least this big are large
	maxFreeSmallBytes = 256 << 10 // small frames listed at most, in bytes
	maxFreeLargeBytes = 768 << 10 // large frames listed at most, in bytes
)

// frameList is one size class's free list.
type frameList struct {
	frames [][]byte
	bytes  int // capacity the list holds
}

// frameList returns the list of a frame of the given size.
func (e *Engine) frameList(size int) *frameList {
	if size >= largeFrame {
		return &e.large
	}
	return &e.small
}

// Frame returns an empty control-channel frame from the free list of the
// size class of a size-byte message, or nil when that list is empty or
// its newest large frame is smaller than size. Append one encoded message
// to it and hand it to DeferBytes, which brings it back once delivered.
// Only the goroutine running this engine may call it: in a sharded run,
// an event of the lane's own.
func (e *Engine) Frame(size int) []byte {
	l := e.frameList(size)
	n := len(l.frames)
	if n == 0 || size >= largeFrame && cap(l.frames[n-1]) < size {
		return nil
	}
	b := l.frames[n-1]
	l.frames[n-1] = nil
	l.frames = l.frames[:n-1]
	l.bytes -= cap(b)
	return b
}

// recycleFrame takes back the frame of a delivery whose callback has
// returned. A Poison build overwrites it first, so a receiver that kept
// it reads 0xAB. A frame its full list has no room for is left to the
// garbage collector.
func (e *Engine) recycleFrame(b []byte) {
	if cap(b) == 0 {
		return
	}
	if Poison {
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0xAB
		}
	}
	l, limit := &e.small, maxFreeSmallBytes
	if cap(b) >= largeFrame {
		l, limit = &e.large, maxFreeLargeBytes
	}
	if l.bytes+cap(b) > limit {
		return
	}
	l.frames = append(l.frames, b[:0])
	l.bytes += cap(b)
}
