package crashexplore_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/crashexplore"
	"tracklog/internal/disk"
	"tracklog/internal/geom"
	"tracklog/internal/kvdb"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/stddisk"
	"tracklog/internal/trail"
	"tracklog/internal/txn"
	"tracklog/internal/wal"
)

func walLogParams() disk.Params {
	g := geom.Uniform(12, 2, 60)
	g.TrackSkew = 4
	g.CylSkew = 8
	return disk.Params{
		Name:            "traillog",
		RPM:             6000,
		Geom:            g,
		SeekT2T:         800 * time.Microsecond,
		SeekAvg:         4 * time.Millisecond,
		SeekMax:         8 * time.Millisecond,
		HeadSwitch:      400 * time.Microsecond,
		ReadOverhead:    200 * time.Microsecond,
		WriteOverhead:   500 * time.Microsecond,
		WriteSettle:     100 * time.Microsecond,
		WriteTurnaround: 600 * time.Microsecond,
	}
}

func walDataParams(name string) disk.Params {
	p := walLogParams()
	p.Name = name
	p.Geom = geom.Uniform(100, 2, 60)
	return p
}

func slotKey(slot int) []byte {
	return []byte(fmt.Sprintf("slot-%d", slot))
}

func slotValue(slot, version int) []byte {
	return []byte(fmt.Sprintf("slot=%d version=%d", slot, version))
}

// TestWALTxnCrashConsistency runs the acknowledged-write-survival property
// against the full database stack of the paper's evaluation: a B-tree store
// and a write-ahead log, both living on Trail devices. A "write" is a
// committed transaction (SyncEveryCommit forces the redo record durable
// before Commit returns), and recovery is two-level — Trail's block recovery
// restores logged sectors, then the database replays its redo log onto the
// reopened trees. Every committed version must be visible afterwards.
func TestWALTxnCrashConsistency(t *testing.T) {
	const (
		slots      = 8
		cachePages = 32
	)
	for trial := 0; trial < 6; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial-%02d", trial), func(t *testing.T) {
			var (
				logDisk    *disk.Disk
				phys       []*disk.Disk
				walSectors int64
			)
			checkSingle(t, uint64(trial), crashexplore.Stack{
				Slots: slots,
				Build: func(env *sim.Env) (crashexplore.WriteFunc, error) {
					logDisk = disk.New(env, walLogParams())
					if err := trail.Format(logDisk); err != nil {
						return nil, err
					}
					// phys[0] holds the WAL, phys[1] the B-tree store.
					phys = []*disk.Disk{
						disk.New(env, walDataParams("waldev")),
						disk.New(env, walDataParams("treedev")),
					}

					// Create the (empty) tree durably before the run, via an
					// instant device, so recovery can reopen it by catalog.
					var loadErr error
					env.Go("load", func(p *sim.Proc) {
						inst := disk.NewInstantDev(phys[1], blockdev.DevID{Major: 3, Minor: 1})
						store, err := kvdb.Open(p, inst, cachePages)
						if err != nil {
							loadErr = err
							return
						}
						if _, err := store.CreateTree(p); err != nil {
							loadErr = err
							return
						}
						loadErr = store.Cache().FlushAll(p)
					})
					env.Run()
					if loadErr != nil {
						return nil, loadErr
					}

					drv, err := trail.NewDriver(env, logDisk, phys, trail.Config{})
					if err != nil {
						return nil, err
					}
					walSectors = drv.Dev(0).Sectors()

					var mgr *txn.Manager
					var tree *kvdb.Tree
					var openErr error
					env.Go("open", func(p *sim.Proc) {
						l, err := wal.New(env, wal.Config{Dev: drv.Dev(0), Sectors: walSectors, Mode: wal.SyncEveryCommit})
						if err != nil {
							openErr = err
							return
						}
						mgr = txn.NewManager(env, l)
						store, err := kvdb.Open(p, drv.Dev(1), cachePages)
						if err != nil {
							openErr = err
							return
						}
						tree, openErr = store.Tree(0)
					})
					env.Run()
					if openErr != nil {
						return nil, openErr
					}

					return func(p *sim.Proc, slot, version int) error {
						tx := mgr.Begin()
						key, val := slotKey(slot), slotValue(slot, version)
						if err := tx.Put(p, tree, 0, key, val, len(val), string(key)); err != nil {
							tx.Abort(p)
							return err
						}
						return tx.Commit(p)
					}, nil
				},
				Recover: func(env2 *sim.Env) (crashexplore.ReadFunc, error) {
					logDisk.Reattach(env2)
					devs := map[blockdev.DevID]blockdev.Device{}
					var stdDevs []blockdev.Device
					for i, d := range phys {
						d.Reattach(env2)
						id := blockdev.DevID{Major: 8, Minor: uint8(i)}
						sd := stddisk.New(env2, d, id, sched.LOOK)
						devs[id] = sd
						stdDevs = append(stdDevs, sd)
					}
					var tree *kvdb.Tree
					var rerr error
					env2.Go("recover", func(p *sim.Proc) {
						rep, err := trail.Recover(p, logDisk, devs, trail.RecoverOptions{})
						if err != nil {
							rerr = fmt.Errorf("trail recovery: %w", err)
							return
						}
						if rep.Clean {
							t.Error("crashed system reported clean")
						}
						records, err := wal.ReadRecords(p, stdDevs[0], 0, walSectors)
						if err != nil {
							rerr = fmt.Errorf("wal scan: %w", err)
							return
						}
						store, err := kvdb.Open(p, stdDevs[1], cachePages)
						if err != nil {
							rerr = fmt.Errorf("reopen store: %w", err)
							return
						}
						tree, err = store.Tree(0)
						if err != nil {
							rerr = fmt.Errorf("reopen tree: %w", err)
							return
						}
						if _, err := txn.RecoverDB(p, records, func(tag uint16) *kvdb.Tree {
							return tree
						}); err != nil {
							rerr = fmt.Errorf("redo: %w", err)
						}
					})
					env2.Run()
					if rerr != nil {
						return nil, rerr
					}
					return func(p *sim.Proc, slot int) (int, bool) {
						val, err := tree.Get(p, slotKey(slot))
						if errors.Is(err, kvdb.ErrNotFound) {
							return 0, true // never committed
						}
						if err != nil {
							t.Errorf("slot %d: get after recovery: %v", slot, err)
							return 0, false
						}
						var gotSlot, gotVer int
						n, serr := fmt.Sscanf(string(val), "slot=%d version=%d", &gotSlot, &gotVer)
						if serr != nil || n != 2 || gotSlot != slot {
							return 0, false
						}
						return gotVer, true
					}, nil
				},
			})
		})
	}
}
