package scotch

import (
	"scotch/internal/controller"
	"scotch/internal/topo"
)

// NewLeafSpineDeployment wires a Scotch app over a leaf-spine fabric built
// by topo.NewLeafSpine, following the paper's deployment guidance (§5.6):
// every rack's vSwitches join the mesh, hosts deliver through a vSwitch in
// their own rack (with the rack's second vSwitch as backup when present),
// and every leaf is protected on its spine uplinks and host ports. It
// creates the controller and app, deploys, connects, and builds; the
// fabric's dimensions are read from ls.
func NewLeafSpineDeployment(ls *topo.LeafSpine, cfg Config) (*controller.Controller, *App, error) {
	c := controller.New(ls.Net.Eng, ls.Net)
	app := New(c, cfg)
	for _, vs := range ls.VSwitches {
		app.AddVSwitch(vs.DPID, false)
	}
	per := len(ls.VSwitches) / len(ls.Leaves)
	for ip, leaf := range ls.HostLeaf {
		primary := ls.VSwitches[leaf*per].DPID
		var backup uint64
		if per > 1 {
			backup = ls.VSwitches[leaf*per+1].DPID
		}
		app.AssignHost(ip, primary, backup)
	}
	// Leaf ports are allocated uplinks-first, then hosts; the vSwitch
	// attachments that follow stay unprotected.
	for l, leaf := range ls.Leaves {
		var ports []uint32
		for p := uint32(1); p <= uint32(len(ls.Spines)+len(ls.Hosts[l])); p++ {
			ports = append(ports, p)
		}
		app.Protect(leaf.DPID, ports...)
	}
	return connectAndBuild(c, app)
}

// NewFatTreeDeployment wires a Scotch app over a fat-tree fabric built by
// topo.NewFatTree, following the same per-rack guidance as
// NewLeafSpineDeployment: every pod's vSwitch pool joins the mesh, hosts
// deliver through a vSwitch of their own pod (spread round-robin, with the
// pod's next vSwitch as backup when the pool has more than one), and every
// edge (ToR) switch is protected on its aggregation uplinks and host
// ports. It creates the controller and app, deploys, connects, and builds.
func NewFatTreeDeployment(ft *topo.FatTree, cfg Config) (*controller.Controller, *App, error) {
	c := controller.New(ft.Net.Eng, ft.Net)
	app := New(c, cfg)
	for _, vs := range ft.VSwitches {
		app.AddVSwitch(vs.DPID, false)
	}
	for p, hosts := range ft.Hosts {
		pool := ft.PodVSwitches(p)
		per := len(pool)
		for i, h := range hosts {
			primary := pool[i%per].DPID
			var backup uint64
			if per > 1 {
				backup = pool[(i+1)%per].DPID
			}
			app.AssignHost(h.IP, primary, backup)
		}
	}
	// Edge ports are allocated uplinks-first (k/2 aggs), then hosts; the
	// vSwitch attachments that follow stay unprotected, as on leaf-spine.
	uplinks := ft.Cfg.K / 2
	for _, edges := range ft.Edge {
		for _, ed := range edges {
			var ports []uint32
			for pt := uint32(1); pt <= uint32(uplinks+ft.Cfg.HostsPerEdge); pt++ {
				ports = append(ports, pt)
			}
			app.Protect(ed.DPID, ports...)
		}
	}
	return connectAndBuild(c, app)
}

// connectAndBuild connects every switch to c and builds the app's overlay.
func connectAndBuild(c *controller.Controller, app *App) (*controller.Controller, *App, error) {
	c.ConnectAll()
	if err := app.Build(); err != nil {
		return nil, nil, err
	}
	return c, app, nil
}
