package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"time"

	"tracklog/internal/disk"
	"tracklog/internal/geom"
	"tracklog/internal/sim"
	"tracklog/internal/trail"
)

// syncSparse is the Figure 3 sparse run: one closed-loop writer issuing
// 1 KB synchronous writes to uniformly random sectors of a WD Caviar data
// disk behind Trail (ST41601N log disk), sleeping 5 ms after each ack. The
// sleep is jittered by up to 0.5 ms either way: Trail's log writes do not
// depend on their targets, so with a fixed gap every seed would produce the
// identical latency sequence; the jitter makes the seed choose the
// rotational phase each write arrives at, and the gap still masks Trail's
// repositioning.
// Writes arrive at about 147/s and write-back drains about 70/s, so the
// staging backlog grows through the run: Trail's per-write bookkeeping is
// what the host pays for.
type syncSparse struct{}

const (
	sparseWrites  = 10000
	sparseSectors = 2 // 1 KB
	sparseGap     = 5 * time.Millisecond
	sparseJitter  = 500 * time.Microsecond
)

type sparseWorld struct {
	seed      uint64
	env       *sim.Env
	log, data *disk.Disk
	drv       *trail.Driver
}

func (syncSparse) setup(seed uint64) (world, error) {
	env := sim.NewEnv()
	log := disk.New(env, disk.ST41601N())
	if err := trail.Format(log); err != nil {
		env.Close()
		return nil, err
	}
	data := disk.New(env, disk.WDCaviar())
	drv, err := trail.NewDriver(env, log, []*disk.Disk{data}, trail.Default())
	if err != nil {
		env.Close()
		return nil, err
	}
	return &sparseWorld{seed: seed, env: env, log: log, data: data, drv: drv}, nil
}

func (w *sparseWorld) close() { closeEnv(w.env) }

// payload fills buf with a pattern unique to (tag, seq), so a read-back can
// tell which write's data it found.
func payload(buf []byte, tag, seq int64) []byte {
	for i := 0; i < len(buf); i += 16 {
		binary.LittleEndian.PutUint64(buf[i:], uint64(tag))
		binary.LittleEndian.PutUint64(buf[i+8:], uint64(seq)^uint64(i)<<40)
	}
	return buf
}

func (w *sparseWorld) run(traced bool) (*outcome, error) {
	dev := w.drv.Dev(0)
	rng := sim.NewRand(w.seed)
	slots := dev.Sectors() / sparseSectors
	last := make(map[int64]int64) // target LBA -> seq of its last acked write
	o := newOutcome(sparseWrites)
	var vlat []time.Duration
	var first, end sim.Time
	peak := sampleStaged(w.env, w.drv, traced, stagedInterval)
	k0 := w.env.KernelStats()

	m, err := startTimed(traced)
	if err != nil {
		return nil, err
	}
	w.env.Go("writer", func(p *sim.Proc) {
		buf := make([]byte, sparseSectors*geom.SectorSize)
		first = p.Now()
		for i := int64(0); i < sparseWrites; i++ {
			lba := rng.Int64n(slots) * sparseSectors
			start := p.Now()
			if err := dev.Write(p, lba, sparseSectors, payload(buf, lba, i)); err != nil {
				fmt.Fprintf(os.Stderr, "sync-sparse: write %d: %v\n", i, err)
				o.failed++
			} else {
				end = p.Now()
				vlat = append(vlat, end.Sub(start))
				last[lba] = i
			}
			p.Sleep(sparseGap - sparseJitter + time.Duration(rng.Int64n(int64(2*sparseJitter))))
		}
	})
	w.env.Run() // returns once write-back has drained the staging backlog
	k := w.env.KernelStats().Delta(k0)
	m.stop(o)

	o.ops = int64(len(vlat))
	o.vspan = end.Sub(first)
	o.setLatencies(vlat)
	o.events = k.EventsDispatched
	o.unstable = kernelMetrics(o.det, k, o.ops)
	var dt diskTally
	dt.add("log", w.log.Stats(), w.env.Now().Duration())
	dt.add("data", w.data.Stats(), w.env.Now().Duration())
	dt.record(o.det, o.ops)
	var st schedTally
	st.add(w.drv.DataQueue(0).Stats())
	st.record(o.det)
	trailMetrics(o.det, w.drv.Stats())
	if traced {
		o.det["trail.staged_peak"] = float64(*peak) / 1024
	}

	if err := shutdown(w.env, w.drv); err != nil {
		fmt.Fprintln(os.Stderr, "sync-sparse:", err)
		o.failed++
	}
	want := make([]byte, sparseSectors*geom.SectorSize)
	for lba, seq := range last {
		if !bytes.Equal(w.data.MediaRead(lba, sparseSectors), payload(want, lba, seq)) {
			o.failed++
		}
	}
	return o, nil
}
