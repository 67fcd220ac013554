package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/geom"
	"tracklog/internal/raid"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/stddisk"
)

// raid5Mixed is the one workload that bypasses Trail, kvdb and
// crashexplore: open-loop Poisson arrivals of 4 KB requests, 70% writes and
// 30% reads, to zipf(0.99) targets on a RAID-5 array of four WD Caviar
// disks behind LOOK queues. Each request is its own simulated process,
// spawned when due and timed from that instant, so the generator is never
// late. Host cost is kernel dispatch, the disk model and parity XOR, and
// the scheduler sees reads beside writes.
type raid5Mixed struct{}

const (
	raidMembers  = 4
	raidChunk    = 64 // sectors
	raidRequests = 20000
	raidSectors  = 8 // 4 KB
	raidWriteP   = 0.70
	raidZipfS    = 0.99
	raidExtents  = 1 << 20 // zipf ranks, scattered over the whole array
	// raidRate is the offered load in requests per virtual second. The
	// array saturates at 67 requests/s with this mix (perfbench -saturation
	// on seeds 1, 2 and 3: 67.1, 68.1 and 66.9, from 64 closed-loop
	// clients), so 45/s keeps the backlog bounded at two thirds of capacity.
	raidRate = 45.0
)

type raidWorld struct {
	seed    uint64
	env     *sim.Env
	members []*disk.Disk
	devs    []*stddisk.Device
	arr     *raid.Array
	stride  int64
}

func (raid5Mixed) setup(seed uint64) (world, error) {
	w := &raidWorld{seed: seed, env: sim.NewEnv()}
	var devs []blockdev.Device
	for i := 0; i < raidMembers; i++ {
		d := disk.New(w.env, disk.WDCaviar())
		sd := stddisk.New(w.env, d, blockdev.DevID{Major: 9, Minor: uint8(i)}, sched.LOOK)
		w.members = append(w.members, d)
		w.devs = append(w.devs, sd)
		devs = append(devs, sd)
	}
	var err error
	if w.arr, err = raid.New(devs, raidChunk); err != nil {
		w.env.Close()
		return nil, err
	}
	w.stride = w.arr.Sectors() / raidExtents / raidSectors * raidSectors
	return w, nil
}

func (w *raidWorld) close() { closeEnv(w.env) }

// zipfRank draws a rank in [0, n) with P(k) proportional to (k+1)^-s, by
// inverting the continuous approximation of the zipf CDF.
func zipfRank(u float64, n int, s float64) int {
	a := 1 - s
	x := math.Pow(1+u*(math.Pow(float64(n+1), a)-1), 1/a) - 1
	return min(int(x), n-1)
}

// target maps a zipf rank to an extent's LBA; multiplying by an odd
// constant permutes the ranks, so hot extents are spread over the array.
func (w *raidWorld) target(rank int) int64 {
	return int64((uint64(rank)*0x9E3779B97F4A7C15)%raidExtents) * w.stride
}

func (w *raidWorld) run(traced bool) (*outcome, error) {
	o := newOutcome(raidRequests)
	rng := sim.NewRand(w.seed)
	last := map[int64]int64{} // extent LBA -> seq of its last acked write
	vlat := make([]time.Duration, 0, raidRequests)
	var first, end sim.Time
	k0 := w.env.KernelStats()

	m, err := startTimed(traced)
	if err != nil {
		return nil, err
	}
	w.env.Go("arrivals", func(p *sim.Proc) {
		first = p.Now()
		for i := int64(0); i < raidRequests; i++ {
			p.Sleep(time.Duration(rng.Exp(float64(time.Second) / raidRate)))
			write := rng.Float64() < raidWriteP
			lba := w.target(zipfRank(rng.Float64(), raidExtents, raidZipfS))
			due := p.Now()
			w.env.Go("request", func(q *sim.Proc) {
				var err error
				if write {
					err = w.arr.Write(q, lba, raidSectors, payload(make([]byte, raidSectors*geom.SectorSize), lba, i))
				} else {
					_, err = w.arr.Read(q, lba, raidSectors)
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "raid5-mixed: request %d: %v\n", i, err)
					o.failed++
					return
				}
				end = q.Now()
				vlat = append(vlat, end.Sub(due))
				if write {
					last[lba] = i
				}
			})
		}
	})
	w.env.Run()
	k := w.env.KernelStats().Delta(k0)
	m.stop(o)

	o.ops = int64(len(vlat))
	o.vspan = end.Sub(first)
	o.setLatencies(vlat)
	o.events = k.EventsDispatched
	kernelMetrics(o.det, k, o.ops) // no sampler here, so traced runs must match too
	var dt diskTally
	var st schedTally
	for i, d := range w.members {
		dt.add("member", d.Stats(), w.env.Now().Duration())
		st.add(w.devs[i].Queue().Stats())
	}
	dt.record(o.det, o.ops)
	st.record(o.det)
	rs := w.arr.Stats()
	o.det["raid.device_ios_per_op"] = float64(rs.DeviceReads+rs.DeviceWrites) / float64(o.ops)

	o.failed += w.verify(last)
	return o, nil
}

// verify reads back every written extent, in LBA order, and counts those
// that do not hold their last acknowledged write.
func (w *raidWorld) verify(last map[int64]int64) int64 {
	lbas := make([]int64, 0, len(last))
	for lba := range last {
		lbas = append(lbas, lba)
	}
	sort.Slice(lbas, func(i, j int) bool { return lbas[i] < lbas[j] })
	var bad int64
	w.env.Go("verify", func(p *sim.Proc) {
		want := make([]byte, raidSectors*geom.SectorSize)
		for _, lba := range lbas {
			got, err := w.arr.Read(p, lba, raidSectors)
			if err != nil || !bytes.Equal(got, payload(want, lba, last[lba])) {
				bad++
			}
		}
	})
	w.env.Run()
	return bad
}

// raidSaturation measures the array's virtual saturation rate for this
// request mix: 64 closed-loop clients, completions per virtual second.
func raidSaturation(seed uint64) (float64, error) {
	wd, err := raid5Mixed{}.setup(seed)
	if err != nil {
		return 0, err
	}
	w := wd.(*raidWorld)
	defer w.close()
	const clients, perClient = 64, 300
	var failed error
	for c := 0; c < clients; c++ {
		rng := sim.NewRand(seed + uint64(c)*7919)
		w.env.Go("client", func(p *sim.Proc) {
			buf := make([]byte, raidSectors*geom.SectorSize)
			for i := 0; i < perClient; i++ {
				lba := w.target(zipfRank(rng.Float64(), raidExtents, raidZipfS))
				var err error
				if rng.Float64() < raidWriteP {
					err = w.arr.Write(p, lba, raidSectors, buf)
				} else {
					_, err = w.arr.Read(p, lba, raidSectors)
				}
				if err != nil {
					failed = err
				}
			}
		})
	}
	w.env.Run()
	if failed != nil {
		return 0, failed
	}
	return clients * perClient / w.env.Now().Duration().Seconds(), nil
}
