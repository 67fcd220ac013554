package raid

import (
	"errors"
	"fmt"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/sim"
	"tracklog/internal/trace"
)

// Scrubbing: latent sector errors are what turns a single device failure
// into data loss — a RAID-5 rebuild must read every surviving copy, and an
// unreadable sector discovered *then* is unrecoverable. A scrub pass finds
// such sectors early, while redundancy still exists, and repairs them by
// reconstructing the contents from the other devices and rewriting (the
// drive remaps the sector on a successful write). Sectors that stay
// unwritable (spreading surface defects) are left on the bad list, where
// reads keep reconstructing them from parity.

// ScrubReport describes one scrub pass.
type ScrubReport struct {
	// SectorsScanned counts sectors read (or attempted) across all live
	// devices.
	SectorsScanned int64
	// MediaErrors counts unreadable sectors found; Repaired counts those
	// healed by a reconstructing rewrite; Unrepairable counts those still
	// broken afterwards (they stay on the bad list).
	MediaErrors  int64
	Repaired     int64
	Unrepairable int64
}

// scrubOpts tags scrubber I/O as Background: under overload it is the
// first traffic the admission gate and bounded schedulers shed.
func scrubOpts() blockdev.Options {
	return blockdev.Options{Class: blockdev.ClassBackground}
}

// Scrub reads every chunk of every live device once, repairing unreadable
// or known-bad sectors from parity. It blocks p for the full pass; use
// StartScrubber for periodic background scrubbing. With QoS active, each
// chunk admits through the array's gate at Background class — chunks the
// gate refuses are skipped (counted as ScrubYields) so foreground traffic
// degrades the scrub, never the other way around.
func (a *Array) Scrub(p *sim.Proc) (*ScrubReport, error) {
	rep := &ScrubReport{}
	perDev := a.devs[0].Sectors() / int64(a.chunk) * int64(a.chunk)
	for dev := range a.devs {
		if dev == a.failed {
			continue
		}
		for lba := int64(0); lba < perDev; lba += int64(a.chunk) {
			if dev == a.failed { // dropped mid-pass by a concurrent op
				break
			}
			if a.ctl != nil {
				if aerr := a.ctl.Admit(p, scrubOpts()); aerr != nil {
					a.stats.ScrubYields++
					a.tlScrubYld.Inc(int64(p.Now()))
					continue
				}
			}
			rep.SectorsScanned += int64(a.chunk)
			stripe := lba / int64(a.chunk)
			a.lockStripe(p, stripe)
			err := a.scrubDevChunk(p, dev, lba, rep)
			a.unlockStripe(p, stripe)
			if a.ctl != nil {
				a.ctl.Release()
			}
			if err == nil {
				continue
			}
			if errors.Is(err, blockdev.ErrDeviceFailed) {
				if ferr := a.Fail(dev); ferr != nil {
					return rep, ferr
				}
				break // rest of this device is gone
			}
			return rep, err
		}
	}
	a.stats.ScrubPasses++
	a.tlScrubPasses.Inc(int64(p.Now()))
	a.stats.ScrubRepaired += rep.Repaired
	a.stats.ScrubUnrepairable += rep.Unrepairable
	return rep, nil
}

// scrubDevChunk checks one chunk of one device and repairs it if needed.
// Caller holds the stripe lock and maps blockdev.ErrDeviceFailed to a device
// drop.
func (a *Array) scrubDevChunk(p *sim.Proc, dev int, lba int64, rep *ScrubReport) error {
	a.stats.DeviceReads++
	_, err := blockdev.ReadOpts(p, a.devs[dev], lba, a.chunk, scrubOpts())
	needProbe := false
	switch {
	case err == nil:
		// Readable — but sectors on the bad list hold stale data (their
		// last write failed) and still need a repair attempt.
		needProbe = a.anyBad(dev, lba, a.chunk)
	case errors.Is(err, blockdev.ErrMediaError):
		a.stats.MediaErrorReads++
		needProbe = true
	default:
		return err
	}
	if !needProbe {
		return nil
	}
	return a.scrubChunk(p, dev, lba, rep)
}

// scrubChunk probes one chunk sector by sector, repairing every sector that
// is unreadable or on the bad list.
func (a *Array) scrubChunk(p *sim.Proc, dev int, lba int64, rep *ScrubReport) error {
	for s := 0; s < a.chunk; s++ {
		slba := lba + int64(s)
		damaged := a.anyBad(dev, slba, 1)
		if !damaged {
			a.stats.DeviceReads++
			_, err := blockdev.ReadOpts(p, a.devs[dev], slba, 1, scrubOpts())
			switch {
			case err == nil:
				continue
			case errors.Is(err, blockdev.ErrMediaError):
				rep.MediaErrors++
			default:
				return err
			}
		} else {
			rep.MediaErrors++
		}
		if err := a.repairSector(p, dev, slba, rep); err != nil {
			return err
		}
	}
	return nil
}

// repairSector reconstructs one sector from the other devices and rewrites
// it. A successful write heals the sector (drive remap); a failed one leaves
// it on the bad list for the next pass.
func (a *Array) repairSector(p *sim.Proc, dev int, slba int64, rep *ScrubReport) error {
	good, err := a.reconstruct(p, dev, slba, 1, scrubOpts())
	if err != nil {
		if errors.Is(err, blockdev.ErrDeviceFailed) {
			return err
		}
		// Double fault: this sector's redundancy is gone too. Nothing to
		// do but record it; the array keeps serving everything else.
		rep.Unrepairable++
		a.markBad(dev, slba)
		return nil
	}
	a.stats.DeviceWrites++
	switch werr := blockdev.WriteOpts(p, a.devs[dev], slba, 1, good, scrubOpts()); {
	case werr == nil:
		a.clearBad(dev, slba, 1)
		rep.Repaired++
		a.tlScrubRepairs.Inc(int64(p.Now()))
		if a.tr != nil {
			a.tr.Emit(trace.Event{At: int64(p.Now()), Kind: trace.KScrubRepair,
				Track: a.name, LBA: slba, Count: 1, A: int64(dev)})
		}
	case errors.Is(werr, blockdev.ErrDeviceFailed):
		return werr
	case errors.Is(werr, blockdev.ErrMediaError):
		a.stats.MediaErrorWrites++
		a.markBad(dev, slba)
		rep.Unrepairable++
	default:
		return werr
	}
	return nil
}

// StartScrubber runs periodic scrub passes in a background process: one
// full pass every interval, forever (until the environment closes or the
// array degrades to the point a pass errors out).
func (a *Array) StartScrubber(env *sim.Env, interval time.Duration) {
	if interval <= 0 {
		panic(fmt.Sprintf("raid: scrub interval %v", interval))
	}
	env.Go("raid-scrubber", func(p *sim.Proc) {
		for {
			p.Sleep(interval)
			if _, err := a.Scrub(p); err != nil {
				return
			}
		}
	})
}
