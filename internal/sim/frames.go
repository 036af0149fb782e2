package sim

// An engine keeps one free list of control-channel frames, the frames
// DeferBytes hands it back once their deliveries have run. Every message
// that travels in one is small (~100–250 B): a flow-stats reply, the one
// message that runs to tens of kilobytes, is built part by part in a
// frame its reply box owns and never enters the list. Reuse needs only as
// many frames as are in flight at once; an expiry sweep's burst of
// thousands of Flow-Removed notices is the largest, and the byte cap is
// what holds down the heap the list keeps after one.
const maxFreeBytes = 256 << 10

// Frame returns an empty control-channel frame from the free list, or nil
// when the list is empty. Append one encoded message to it (append grows
// it if needed) and hand it to DeferBytes, which brings it back once
// delivered. Only the goroutine running this engine may call it: in a
// sharded run, an event of the lane's own.
func (e *Engine) Frame() []byte {
	n := len(e.frames)
	if n == 0 {
		return nil
	}
	b := e.frames[n-1]
	e.frames[n-1] = nil
	e.frames = e.frames[:n-1]
	e.frameBytes -= cap(b)
	return b
}

// recycleFrame takes back the frame of a delivery whose callback has
// returned. A Poison build overwrites it first, so a receiver that kept
// it reads 0xAB. A frame the full list has no room for is left to the
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
	if e.frameBytes+cap(b) > maxFreeBytes {
		return
	}
	e.frames = append(e.frames, b[:0])
	e.frameBytes += cap(b)
}
