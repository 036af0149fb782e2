// Package device models the network elements of a Scotch deployment: SDN
// switches (hardware and virtual) with rate-limited OpenFlow Agents,
// links, MPLS/GRE tunnels, end hosts, and stateful middleboxes.
//
// The central fidelity point, taken from the paper's measurements (§3.1),
// is that a switch is *two* machines: a fast data plane (flow-table
// lookups at line rate) and a slow control agent (the OFA) whose
// Packet-In generation and rule-insertion rates are orders of magnitude
// lower. Both are modelled as finite-queue servers on the simulation
// engine, with per-model constants in profiles.go. Links and tunnels can
// be forced administratively down and switches crashed/restarted by the
// fault-injection harness (internal/fault).
package device
