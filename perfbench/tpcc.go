package main

import (
	"fmt"
	"os"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/bufcache"
	"tracklog/internal/disk"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/tpcc"
	"tracklog/internal/trail"
	"tracklog/internal/txn"
	"tracklog/internal/wal"
)

// tpccTrail is Table 2's EXT2+Trail column: TPC-C at the repository's
// default w=1 scale, one terminal, a WAL that syncs every commit, over
// txn and kvdb, with the WAL and both table disks behind one Trail driver.
// B-tree page misses read through the driver (sometimes from staging),
// dirty evictions and checkpoints write through it, and commits are small
// synchronous log writes. The page cache starts empty after the reopen.
type tpccTrail struct{}

// A run is 300 warm-up transactions, which fill the page cache after the
// cold reopen (the Table 2 experiment's default at this scale), then the
// paper's 5,000 measured ones. Every committed transaction is an op; the
// virtual-time metrics cover the measured ones. With 1,000 measured
// transactions the median latency spread by 24% (IQR over median) across
// seeds. Above 1,024 samples the runner's Summary reports quantiles from
// log buckets, in steps of about 5%.
const (
	tpccWarmup       = 300
	tpccTransactions = 5000
)

// tpccConfig is the laptop-scale w=1 database the Table 2 experiment uses
// by default: the 700-page cache is smaller than the database, so dirty
// evictions are synchronous data-disk writes.
func tpccConfig(seed uint64) tpcc.Config {
	return tpcc.Config{
		Warehouses:               1,
		Districts:                10,
		CustomersPerDistrict:     600,
		Items:                    10000,
		InitialOrdersPerDistrict: 300,
		CachePages:               700,
		Seed:                     seed + 1,
	}
}

type tpccWorld struct {
	seed   uint64
	env    *sim.Env
	disks  []*disk.Disk // 0 = database log file, 1..2 = tables
	log    *disk.Disk
	drv    *trail.Driver
	db     *tpcc.DB
	mgr    *txn.Manager
	loadS  float64
	runner *tpcc.Runner
}

func (tpccTrail) setup(seed uint64) (world, error) {
	w := &tpccWorld{seed: seed, env: sim.NewEnv()}
	ok := false
	defer func() {
		if !ok {
			w.env.Close()
		}
	}()
	for i := 0; i < 3; i++ {
		w.disks = append(w.disks, disk.New(w.env, disk.WDCaviar()))
	}
	// Populate the tables through instant devices, as Table 2 does.
	t0 := time.Now()
	var err error
	w.env.Go("load", func(p *sim.Proc) {
		inst := []blockdev.Device{
			disk.NewInstantDev(w.disks[1], blockdev.DevID{Major: 3, Minor: 1}),
			disk.NewInstantDev(w.disks[2], blockdev.DevID{Major: 3, Minor: 2}),
		}
		var db *tpcc.DB
		if db, err = tpcc.Load(p, tpccConfig(seed), inst); err == nil {
			err = db.FlushAll(p)
		}
	})
	w.env.Run()
	w.loadS = time.Since(t0).Seconds()
	if err != nil {
		return nil, fmt.Errorf("tpcc load: %w", err)
	}

	w.log = disk.New(w.env, disk.ST41601N())
	if err := trail.Format(w.log); err != nil {
		return nil, err
	}
	if w.drv, err = trail.NewDriver(w.env, w.log, w.disks, trail.Default()); err != nil {
		return nil, err
	}
	w.env.Go("open", func(p *sim.Proc) {
		if w.db, err = tpcc.Reopen(p, tpccConfig(seed), []blockdev.Device{w.drv.Dev(1), w.drv.Dev(2)}); err != nil {
			return
		}
		var l *wal.Log
		l, err = wal.New(w.env, wal.Config{
			Dev:         w.drv.Dev(0),
			Sectors:     w.drv.Dev(0).Sectors(),
			Mode:        wal.SyncEveryCommit,
			BufferBytes: 50 * 1024,
		})
		if err == nil {
			w.mgr = txn.NewManager(w.env, l)
			w.runner = tpcc.NewRunner(w.db, w.mgr)
		}
	})
	w.env.Run()
	if err != nil {
		return nil, fmt.Errorf("tpcc open: %w", err)
	}
	ok = true
	return w, nil
}

func (w *tpccWorld) close() { closeEnv(w.env) }

func (w *tpccWorld) run(traced bool) (*outcome, error) {
	o := newOutcome(tpccWarmup + tpccTransactions)
	peak := sampleStaged(w.env, w.drv, traced, stagedInterval)
	// Counters start at the timed phase: the reopen already read pages.
	for _, d := range append([]*disk.Disk{w.log}, w.disks...) {
		d.ResetStats()
	}
	var q0 []sched.Stats
	for i := range w.disks {
		q0 = append(q0, w.drv.DataQueue(i).Stats())
	}
	t0 := w.drv.Stats()
	var c0 []bufcache.Stats
	for _, s := range w.db.Stores() {
		c0 = append(c0, s.Cache().Stats())
	}
	k0 := w.env.KernelStats()
	v0 := w.env.Now()

	m, err := startTimed(traced)
	if err != nil {
		return nil, err
	}
	res, err := w.runner.Run(w.env, tpcc.RunConfig{
		Transactions: tpccTransactions,
		Warmup:       tpccWarmup,
		Concurrency:  1,
		Seed:         w.seed + 7,
		// No periodic checkpoint: Table 2's runs checkpoint every 100
		// transactions, but DB.FlushAll writes dirty pages in map order,
		// so checkpoint writes (and every virtual time after them) differ
		// between same-seed runs. Dirty pages still reach the table disks
		// through evictions, which follow the cache's LRU order.
		CheckpointEvery: -1,
	})
	k := w.env.KernelStats().Delta(k0)
	m.stop(o)

	ts := w.mgr.Stats()
	o.ops = ts.Committed
	if err != nil {
		// Anything but a commit or TPC-C's specified rollback is a failure;
		// the runner stops at the first one.
		fmt.Fprintln(os.Stderr, "tpcc-trail:", err)
		o.failed = max(1, o.attempted-ts.Committed-ts.Aborted)
	} else {
		o.failed = tpccTransactions - res.Committed - res.Aborted
		o.vn = int(res.Response.Count())
		o.vp50, o.vp99 = res.Response.Quantile(0.50), res.Response.Quantile(0.99)
		o.vspan = res.Elapsed
	}
	span := w.env.Now().Sub(v0)
	txns := float64(o.attempted)
	o.events = k.EventsDispatched
	o.unstable = kernelMetrics(o.det, k, o.ops)
	var dt diskTally
	dt.add("log", w.log.Stats(), span)
	var st schedTally
	for i, d := range w.disks {
		dt.add("data", d.Stats(), span)
		q := w.drv.DataQueue(i).Stats()
		q.QueueWait -= q0[i].QueueWait
		q.Completed -= q0[i].Completed
		st.add(q)
	}
	dt.record(o.det, o.ops)
	st.record(o.det)
	trailMetrics(o.det, trailAdd(w.drv.Stats(), t0, -1))
	ws := w.mgr.Log().Stats()
	o.det["wal.flushes_per_txn"] = float64(ws.Flushes) / txns
	o.det["wal.io_ms_per_txn"] = ws.IOTime.Seconds() * 1e3 / txns
	o.det["txn.lock_wait_ms_per_txn"] = ts.LockWaitTime.Seconds() * 1e3 / txns
	o.det["txn.aborts"] = float64(ts.Aborted)
	var hits, misses, dirty int64
	for i, s := range w.db.Stores() {
		c := s.Cache().Stats()
		hits += c.Hits - c0[i].Hits
		misses += c.Misses - c0[i].Misses
		dirty += c.DirtyWrites - c0[i].DirtyWrites
	}
	o.det["bufcache.hit_rate"] = float64(hits) / float64(hits+misses)
	o.det["bufcache.node_loads_per_txn"] = float64(hits+misses) / txns
	o.det["bufcache.dirty_writes_per_txn"] = float64(dirty) / txns
	o.host["tpcc.load_s"] = w.loadS
	if traced {
		o.det["trail.staged_peak"] = float64(*peak) / 1024
	}

	if err := shutdown(w.env, w.drv); err != nil {
		fmt.Fprintln(os.Stderr, "tpcc-trail:", err)
		o.failed++
	}
	return o, nil
}
