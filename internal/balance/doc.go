// Package balance is the elasticity control loop: the one deterministic,
// sim-clock-driven loop that decides how the Scotch control plane
// scales. Its input is a Signals source called once per tick — a vSwitch
// pool read live (PoolSignals), a cluster coordinator read live
// (ReplicaSignals), or the observatory's consistent obs.ClusterView
// snapshot digested by ExtractSignals (DESIGN.md §12) — and its outputs
// are three actuator interfaces:
//
//   - grow/drain the overlay vSwitch pool (Pool, satisfied by
//     scotch.VSwitchPool),
//   - migrate switch pods between controller replicas (Migrator,
//     satisfied by cluster.Coordinator.MigratePod), and
//   - spawn/retire controller replicas (ReplicaActuator).
//
// A balancer wired with one actuator is the whole loop for that tier:
// the elastic experiments run a pool-only balancer, every cluster rig a
// migrate-only one, and the joint experiments one balancer with all
// three.
//
// The policy is multi-threshold with hysteresis and per-action
// cooldowns, in the style of EASM (arXiv 1711.08659) and the
// multi-threshold switch-migration approach (arXiv 2504.17046):
// scale-up remedies are tried cheapest-first (grow pool, then migrate a
// pod, then spawn a replica — SLO burn rate is the escalation signal),
// scale-down only runs when no SLO is burning, and every decision —
// applied or suppressed — is counted, logged, and trace-marked. See
// DESIGN.md §13 for the control-loop state machine and the anti-flap
// reasoning, and OPERATIONS.md for the operator-facing decision table.
//
// All Balancer methods are safe on a nil receiver and the disabled path
// allocates nothing, so call sites never need to guard.
package balance
