// Package fault is a deterministic fault-injection harness for the
// simulated Scotch control plane. It exists to exercise the paper's §5
// reliability mechanisms — vSwitch ECHO heartbeats (§5.4), backup-vSwitch
// promotion (§5.6), and overlay withdrawal (§5.5) — under adversarial
// conditions, and to provide the reconnect backoff used by the live TCP
// path in internal/ofnet.
//
// A fault campaign is a Plan: a seeded, typed list of Events on the
// simulation clock (link down/up, switch crash/restart, controller
// partition/heal). A Runner schedules the plan on a sim.Engine and applies
// each event through an Environment implemented by the experiment rig, so
// this package never imports topology or device types and stays free of
// import cycles. Faults act on links, switches and controller replicas,
// never on single control messages: the OFA-controller channel is
// OpenFlow over TCP, which does not drop, duplicate or reorder one message
// and deliver the next.
//
// All randomness is drawn from private generators seeded by the plan,
// never from the engine's RNG: injecting (or not injecting) faults
// therefore cannot perturb the random choices of the workload, and a
// no-fault run remains byte-identical to a build without this package.
package fault
