// Package probeg is a probeguard fixture: device and durable-log shapes are
// matched structurally against the real tracklog/internal/blockdev and
// tracklog/internal/sim types, and probe emissions are found through helper
// calls, so only the whole-program closure can tell a silent device from a
// relayed one.
package probeg

import (
	"tracklog/internal/blockdev"
	"tracklog/internal/sim"
)

// MuteDev implements blockdev.Device but never emits a completion probe:
// its durability edges are invisible to crashexplore.
type MuteDev struct { // want `blockdev\.Device implementation MuteDev never reaches sim\.EmitProbe\(ProbeAck or ProbeMediaWrite\)`
	env *sim.Env
}

var _ blockdev.Device = (*MuteDev)(nil)

func (d *MuteDev) ID() blockdev.DevID { return blockdev.DevID{Major: 8, Minor: 0} }

func (d *MuteDev) Sectors() int64 { return 128 }

func (d *MuteDev) Read(p *sim.Proc, lba int64, count int) ([]byte, error) { return nil, nil }

func (d *MuteDev) Write(p *sim.Proc, lba int64, count int, data []byte) error { return nil }

// AckDev emits its ack two call edges below Write.
type AckDev struct {
	env *sim.Env
	id  blockdev.DevID
}

var _ blockdev.Device = (*AckDev)(nil)

func (d *AckDev) ID() blockdev.DevID { return d.id }

func (d *AckDev) Sectors() int64 { return 128 }

func (d *AckDev) Read(p *sim.Proc, lba int64, count int) ([]byte, error) { return nil, nil }

func (d *AckDev) Write(p *sim.Proc, lba int64, count int, data []byte) error {
	d.complete(p, lba, count)
	return nil
}

// complete is the helper hop: an intraprocedural look at Write sees no probe.
func (d *AckDev) complete(p *sim.Proc, lba int64, count int) {
	d.env.EmitProbe(sim.ProbeAck, d.id.String(), lba, count)
}

// RelayDev forwards to a wrapped AckDev; its closure reaches the wrapped
// emission transitively, so a pure relay is clean.
type RelayDev struct{ inner *AckDev }

var _ blockdev.Device = (*RelayDev)(nil)

func (d *RelayDev) ID() blockdev.DevID { return d.inner.ID() }

func (d *RelayDev) Sectors() int64 { return d.inner.Sectors() }

func (d *RelayDev) Read(p *sim.Proc, lba int64, count int) ([]byte, error) {
	return d.inner.Read(p, lba, count)
}

func (d *RelayDev) Write(p *sim.Proc, lba int64, count int, data []byte) error {
	return d.inner.Write(p, lba, count, data)
}

// MuteLog has the durable-log shape but never probes its commits.
type MuteLog struct { // want `durable log MuteLog \(Append/Flush\) never reaches sim\.EmitProbe\(ProbeCommit\)`
	env *sim.Env
}

func (l *MuteLog) Append(p *sim.Proc, rec []byte) (int64, error) { return 0, nil }

func (l *MuteLog) Flush(p *sim.Proc) error { return nil }

// CommitLog probes its commit through a helper: clean.
type CommitLog struct{ env *sim.Env }

func (l *CommitLog) Append(p *sim.Proc, rec []byte) (int64, error) { return 0, nil }

func (l *CommitLog) Flush(p *sim.Proc) error {
	l.mark(p)
	return nil
}

func (l *CommitLog) mark(p *sim.Proc) {
	l.env.EmitProbe(sim.ProbeCommit, "log", 0, 0)
}

// flight opens and closes a write-back in the same package: paired, clean.
func flight(env *sim.Env, p *sim.Proc) {
	env.EmitProbe(sim.ProbeWBStart, "data0", 0, 8)
	env.EmitProbe(sim.ProbeWBEnd, "data0", 0, 8)
}
