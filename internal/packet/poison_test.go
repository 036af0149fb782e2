//go:build scotchpoison

package packet

import "testing"

// TestReleasedPacketPoisoned: in a poison build a released packet is
// overwritten, not pooled, so a holder that kept it reads the same garbage
// on every run.
func TestReleasedPacketPoisoned(t *testing.T) {
	p := NewTCP(srcIP, dstIP, 1, 2, FlagSYN)
	if err := p.EncapGRE(srcIP, dstIP, 1); err != nil {
		t.Fatal(err)
	}
	p.Release()
	if p.IP.Src != poisonAddr || p.IP.Dst != poisonAddr || p.Outer.Dst != poisonAddr ||
		p.Size != -1 || p.Meta.FlowID != ^uint64(0) {
		t.Fatalf("released packet reads %v size %d flow %#x, want poison", p, p.Size, p.Meta.FlowID)
	}
}
