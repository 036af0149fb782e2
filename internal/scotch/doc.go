// Package scotch implements the paper's contribution: a controller
// application that elastically scales the SDN control plane by detouring
// new flows through a vSwitch overlay when a hardware switch's control
// path saturates.
//
// The pieces map one-to-one onto the paper's design sections:
//
//	overlay.go   — §4.1/§5.1: the tunnel mesh, select-group load
//	               balancing, offload activation, §5.6 failover
//	scotch.go    — §5.2: flow identification (tunnel id + inner label),
//	               ingress-port differentiation with overlay and dropping
//	               thresholds, §5.5 withdrawal
//	scheduler.go — §5.2/§5.3: per-switch paced installation with the
//	               admitted > migration > ingress priority order
//	install.go   — §5.3: every flow setup's install plan (hops, rules,
//	               first packet) and the send functions, one per order,
//	               that decide the order they go out in
//	migrate.go   — §5.3: elephant detection via flow stats and migration
//	               to policy-consistent physical paths (§5.4)
package scotch
