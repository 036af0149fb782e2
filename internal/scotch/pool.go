package scotch

import (
	"errors"

	"scotch/internal/sim"
)

// VSwitchPool adapts a running App to balance.Pool, the pool actuator of
// the elasticity balancer (paper §3, "elastically scaling up the control
// plane"). Grow promotes the next standby vSwitch into the mesh live;
// Shrink drains the most recently grown member (LIFO, so the build-time
// floor is never drained by the balancer). A drained member returns to
// the back of the standby list and may be grown again later — the
// overlay allocates fresh tunnel ports on re-add, so recycling is safe.
type VSwitchPool struct {
	app     *App
	standby []uint64
	grown   []uint64
}

// NewVSwitchPool builds a pool over app with the given standby vSwitch
// DPIDs. The standbys must exist in the topology and be connected to
// the controller, but not be mesh members; they join only when the
// balancer grows the pool.
func NewVSwitchPool(app *App, standby []uint64) *VSwitchPool {
	return &VSwitchPool{app: app, standby: append([]uint64(nil), standby...)}
}

// Size counts the mesh's serving primaries: a draining, dead or backup
// member takes no new assignments of its own, so it does not count.
func (p *VSwitchPool) Size() int {
	n := 0
	for _, m := range p.app.ov.members {
		if m.serving() {
			n++
		}
	}
	return n
}

// Grow adds the first standby that the overlay accepts. A recycled
// member whose previous drain has not finished is rotated to the back
// of the list and the next candidate is tried.
func (p *VSwitchPool) Grow() error {
	for tries := len(p.standby); tries > 0; tries-- {
		dpid := p.standby[0]
		if err := p.app.AddVSwitch(dpid, false); err != nil {
			p.standby = append(p.standby[1:], dpid)
			continue
		}
		p.standby = p.standby[1:]
		p.grown = append(p.grown, dpid)
		return nil
	}
	return errors.New("scotch: no standby vswitch available")
}

// Shrink starts draining the most recently grown member and returns it
// to the standby list for future growth.
func (p *VSwitchPool) Shrink() error {
	for i := len(p.grown) - 1; i >= 0; i-- {
		dpid := p.grown[i]
		if err := p.app.DrainVSwitch(dpid); err != nil {
			continue
		}
		p.grown = append(p.grown[:i], p.grown[i+1:]...)
		p.standby = append(p.standby, dpid)
		return nil
	}
	return errors.New("scotch: no grown member can drain")
}

// OverlayRate returns the balancer's pool load signal (a
// balance.LoadFunc) measuring the overlay-routed flow rate per pool
// member: the increase in app.Stats.OverlayRouted since the previous
// sample, per second, divided by the pool size at sample time (clamped
// to 1). The first sample measures from time zero; a sample
// at the same instant as the previous one reads 0. This is the signal
// the elastic experiments scale on — it is exactly the work the mesh
// absorbs for the control plane, so it rises with the attack and falls
// when the attack stops or capacity is added.
func OverlayRate(eng sim.Proc, app *App, pool interface{ Size() int }) func() float64 {
	var prevCount uint64
	var prevAt sim.Time
	return func() float64 {
		now := eng.Now()
		count := app.Stats.OverlayRouted
		dt := (now - prevAt).Seconds()
		d := count - prevCount
		prevCount = count
		prevAt = now
		if dt <= 0 {
			return 0
		}
		size := pool.Size()
		if size < 1 {
			size = 1
		}
		return float64(d) / dt / float64(size)
	}
}
