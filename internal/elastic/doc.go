// Package elastic grows and shrinks the Scotch mesh-vSwitch pool to
// follow control-plane load (paper §3, "elastically scaling up the
// control plane").
//
// The paper provisions the overlay for a worst case; this package holds
// the pool side of the operational loop the paper sketches but does not
// build: a Pool interface, the VSwitchPool adapter that mutates a
// *running* deployment through scotch.App's live AddVSwitch /
// DrainVSwitch operations, and OverlayRate, the load signal (overlay-
// routed flows/s per mesh member). The decisions — dual-threshold
// hysteresis, resize cooldown, size bounds — are made by a
// balance.Balancer holding only the pool actuator, fed by
// balance.PoolSignals. Scale-up extends the tunnel mesh and select-group
// fan-out in place; scale-down drains gracefully, so established flows
// either idle out or are handed to the elephant-migration path — never
// dropped.
//
// Everything runs on the simulation clock: the same seed produces the
// same resize sequence, so elastic experiments stay byte-reproducible.
package elastic
