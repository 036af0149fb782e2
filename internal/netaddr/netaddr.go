package netaddr

import (
	"fmt"
	"strconv"
	"strings"
)

// IPv4 is an IPv4 address in host byte order. The zero value is 0.0.0.0.
type IPv4 uint32

// MakeIPv4 assembles an address from its four octets.
func MakeIPv4(a, b, c, d byte) IPv4 {
	return IPv4(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// ParseIPv4 parses dotted-quad notation.
func ParseIPv4(s string) (IPv4, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("netaddr: invalid IPv4 %q", s)
	}
	var ip IPv4
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 {
			return 0, fmt.Errorf("netaddr: invalid IPv4 %q", s)
		}
		ip = ip<<8 | IPv4(v)
	}
	return ip, nil
}

// MustParseIPv4 is ParseIPv4 that panics on error, for tests and literals.
func MustParseIPv4(s string) IPv4 {
	ip, err := ParseIPv4(s)
	if err != nil {
		panic(err)
	}
	return ip
}

// String returns dotted-quad notation.
func (ip IPv4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// In reports whether the address matches prefix under mask (both in host
// order; mask 0xffffffff is an exact match, mask 0 matches everything).
func (ip IPv4) In(prefix IPv4, mask uint32) bool {
	return uint32(ip)&mask == uint32(prefix)&mask
}

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// MakeMAC derives a locally administered unicast MAC from a 32-bit id,
// convenient for assigning stable addresses to simulated nodes.
func MakeMAC(id uint32) MAC {
	return MAC{0x02, 0x00, byte(id >> 24), byte(id >> 16), byte(id >> 8), byte(id)}
}

// Broadcast is the Ethernet broadcast address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// String returns the conventional colon-separated hex form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsBroadcast reports whether m is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == Broadcast }

// IP protocol numbers used by the simulator.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
	ProtoGRE  = 47
)

// FlowKey identifies a transport flow by its 5-tuple. It is comparable and
// therefore usable as a map key.
type FlowKey struct {
	Src, Dst         IPv4
	Proto            uint8
	SrcPort, DstPort uint16
}

// Reverse returns the key of the opposite direction of the flow.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{Src: k.Dst, Dst: k.Src, Proto: k.Proto, SrcPort: k.DstPort, DstPort: k.SrcPort}
}

// String formats the key as "src:sport->dst:dport/proto".
func (k FlowKey) String() string {
	return fmt.Sprintf("%v:%d->%v:%d/%d", k.Src, k.SrcPort, k.Dst, k.DstPort, k.Proto)
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Hash returns a 64-bit FNV-1a hash of the key, suitable for ECMP bucket
// selection (the paper's "hash function based on the flow id").
func (k FlowKey) Hash() uint64 {
	h := uint64(fnvOffset)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= fnvPrime
	}
	for i := 24; i >= 0; i -= 8 {
		mix(byte(k.Src >> i))
	}
	for i := 24; i >= 0; i -= 8 {
		mix(byte(k.Dst >> i))
	}
	mix(k.Proto)
	mix(byte(k.SrcPort >> 8))
	mix(byte(k.SrcPort))
	mix(byte(k.DstPort >> 8))
	mix(byte(k.DstPort))
	// Finalize with an avalanche step (the 64-bit murmur3 finalizer): raw
	// FNV distributes sequential inputs poorly modulo small powers of two,
	// which is exactly how ECMP bucket selection uses this hash.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
