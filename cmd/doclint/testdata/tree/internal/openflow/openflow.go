// Package openflow declares an allowlisted wire constant nothing reads.
package openflow

// ReasonAction is a Packet-In reason a switch may send.
const ReasonAction = 1
