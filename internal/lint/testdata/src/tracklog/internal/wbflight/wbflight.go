// Package wbflight is a probeguard fixture for write-back pairing: the
// package submits flights but nothing ever lands one, so crashexplore's
// in-flight accounting undercounts torn write-backs.
package wbflight

import "tracklog/internal/sim"

func submit(env *sim.Env, p *sim.Proc) {
	env.EmitProbe(sim.ProbeWBStart, "data0", 0, 8) // want `package emits sim\.ProbeWBStart but never sim\.ProbeWBEnd`
}
