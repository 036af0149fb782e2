// Package packet models network packets and their wire encoding.
//
// The design mirrors gopacket: each protocol layer is a struct with
// SerializeTo/DecodeFromBytes methods, and a Packet bundles a decoded
// layer stack. The simulator passes *Packet values between nodes; the
// wire codec is exercised whenever packets cross an encapsulation
// boundary (the MPLS overlay tunnels of §4.1) or are embedded into
// OpenFlow Packet-In messages. Constructors take packets from a pool, and
// the node where a packet dies gives it back with Release (DESIGN.md §14,
// "The data-plane packet").
package packet
