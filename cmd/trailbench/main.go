// Command trailbench regenerates the paper's raw-disk experiments: Figure 3
// (synchronous write latency, Trail vs the standard subsystem), Table 1
// (batched writes), the §3.1 delta calibration, and the §5.1 latency
// anatomy.
//
// Usage:
//
//	trailbench [-fig3] [-table1] [-delta] [-anatomy] [-procs N] [-writes N] [-seed N]
//
// With no selection flags, everything runs.
//
// Every invocation also writes a machine-readable benchmark summary —
// mean/p50/p99 latency and driver counters for the core sync-write
// configurations — to the file named by -json (default BENCH_trail.json;
// empty disables), for dashboards and regression tooling.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"tracklog/internal/benchfmt"
	"tracklog/internal/blockdev"
	"tracklog/internal/crashexplore"
	"tracklog/internal/crashexplore/stacks"
	"tracklog/internal/disk"
	"tracklog/internal/experiments"
	"tracklog/internal/metrics"
	"tracklog/internal/obs"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/stddisk"
	"tracklog/internal/timeline"
	"tracklog/internal/trail"
	"tracklog/internal/workload"
)

func main() {
	fig3 := flag.Bool("fig3", false, "run Figure 3 (sync write latency vs size)")
	table1 := flag.Bool("table1", false, "run Table 1 (batched writes)")
	delta := flag.Bool("delta", false, "run the section 3.1 delta calibration")
	anatomy := flag.Bool("anatomy", false, "run the section 5.1 latency anatomy")
	ablate := flag.Bool("ablate", false, "run the design-choice ablations (threshold, read priority, recovery optimizations)")
	ext := flag.Bool("ext", false, "run the extensions (multi-log-disk, O_SYNC file metadata, RAID-5 small writes)")
	procs := flag.Int("procs", 0, "Figure 3 multiprogramming level (0 = both panels: 1 and 5)")
	writes := flag.Int("writes", 200, "writes per measurement point")
	seed := flag.Uint64("seed", 1, "random seed")
	jsonOut := flag.String("json", "BENCH_trail.json", "machine-readable benchmark summary file (empty disables)")
	tlBucket := flag.Duration("timeline", 0, "aggregate per-layer state occupancy into virtual-time buckets of this width during the -json sync-write grid (0 disables)")
	tlOut := flag.String("timeline-out", "timeline.csv", "timeline export base path for -timeline; one file per sync-write configuration, the slash-mangled name inserted before the extension (.json for JSON, else CSV)")
	summaryOnly := flag.Bool("summary-only", false, "skip the experiment reports; only write the -json summary (CI regression gating)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile (runtime/pprof) covering the whole run")
	memProfile := flag.String("memprofile", "", "write a heap profile (runtime/pprof) at exit")
	flag.Parse()

	all := !*summaryOnly && !*fig3 && !*table1 && !*delta && !*anatomy && !*ablate && !*ext
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "trailbench:", err)
		os.Exit(1)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
		}()
	}

	if all || *fig3 {
		panels := []int{1, 5}
		if *procs > 0 {
			panels = []int{*procs}
		}
		for _, p := range panels {
			res, err := experiments.Figure3(experiments.Figure3Config{
				Processes:        p,
				WritesPerProcess: *writes,
				Seed:             *seed,
			})
			if err != nil {
				fail(err)
			}
			fmt.Println(res)
			fmt.Println(res.Plot())
		}
	}
	if all || *table1 {
		res, err := experiments.Table1(32, nil)
		if err != nil {
			fail(err)
		}
		fmt.Println(res)
	}
	if all || *delta {
		res, err := experiments.DeltaCalibration(nil, *writes/10+5)
		if err != nil {
			fail(err)
		}
		fmt.Println(res)
	}
	if all || *anatomy {
		res, err := experiments.LatencyAnatomy(*writes / 4)
		if err != nil {
			fail(err)
		}
		fmt.Println(res)
	}
	if all || *ablate {
		th, err := experiments.ThresholdSweep(nil, *writes, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Println(th)
		rp, err := experiments.ReadPriorityAblation(*writes/2, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Println(rp)
		ro, err := experiments.RecoveryOptimizationsAblation(64, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Println(ro)
	}
	if all || *ext {
		ml, err := experiments.MultiLogAblation(nil, *writes, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Println(ml)
		fm, err := experiments.FSMetadata(*writes/4, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Println(fm)
		r5, err := experiments.RAID5SmallWrites(*writes/2, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Println(r5)
		dl, err := experiments.DirectLogging(*writes/2, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Println(dl)
	}
	if *jsonOut != "" {
		if err := writeBenchJSON(*jsonOut, *writes, *seed, *tlBucket, *tlOut); err != nil {
			fail(err)
		}
		fmt.Printf("bench summary -> %s\n", *jsonOut)
	}
}

// writeBenchJSON runs the core sync-write configurations (both systems, both
// arrival modes, 1KB and 8KB writes) and writes their latency distributions
// and counters in the benchfmt schema. The file is byte-deterministic for a
// given seed, so cmd/benchdiff can gate regressions against a checked-in
// baseline.
func writeBenchJSON(path string, writes int, seed uint64, tlBucket time.Duration, tlBase string) error {
	bf := &benchfmt.File{Writes: writes, Seed: seed}
	for _, system := range []string{"trail", "std"} {
		for _, mode := range []workload.Mode{workload.Sparse, workload.Clustered} {
			for _, sizeKB := range []int{1, 8} {
				e, err := benchPoint(system, mode, sizeKB, writes, seed, tlBucket, tlBase)
				if err != nil {
					return err
				}
				bf.Experiments = append(bf.Experiments, e)
			}
		}
	}
	ov, err := experiments.Overload([]float64{2.0}, writes, seed)
	if err != nil {
		return err
	}
	for _, row := range ov.Rows {
		qosStr := "off"
		if row.QoS {
			qosStr = "on"
		}
		bf.Experiments = append(bf.Experiments, benchfmt.Entry{
			Name:   fmt.Sprintf("overload/qos=%s/%.1fx", qosStr, row.Multiplier),
			Count:  row.Acked,
			MeanUS: usFloat(row.Mean),
			P50US:  usFloat(row.P50),
			P99US:  usFloat(row.P99),
			Counters: map[string]int64{
				"shed":              row.Shed,
				"deadline_exceeded": row.Expired,
				"max_log_queue":     int64(row.MaxLogQueue),
			},
		})
	}
	xp, err := explorePoint(seed)
	if err != nil {
		return err
	}
	bf.Experiments = append(bf.Experiments, xp)
	return bf.WriteFile(path)
}

// explorePoint measures crash-point exploration over a fixed trail window.
// All values are virtual-time (the latency columns are the per-branch cut
// instants; branches_per_virtual_sec is explored branches over summed
// replayed virtual time), so the entry is byte-deterministic and the gate
// catches probe-schedule regressions exactly.
func explorePoint(seed uint64) (benchfmt.Entry, error) {
	st, err := stacks.TrailStack("", 0)
	if err != nil {
		return benchfmt.Entry{}, err
	}
	rep, err := crashexplore.New(st, crashexplore.Options{Seed: seed, Window: 60}).Run()
	if err != nil {
		return benchfmt.Entry{}, err
	}
	if rep.Failed() {
		return benchfmt.Entry{}, fmt.Errorf("crash-explore bench: durability contract violated (first failing event %d)", rep.FirstFailing)
	}
	cuts := metrics.NewSummary()
	var replayed time.Duration
	for _, b := range rep.Branches {
		at := time.Duration(b.Event.At)
		cuts.Add(at)
		replayed += at
	}
	e := benchfmt.Entry{
		Name:   "crash-explore/trail/window=60",
		Count:  int64(rep.Explored),
		MeanUS: usFloat(cuts.Mean()),
		P50US:  usFloat(cuts.Quantile(0.50)),
		P99US:  usFloat(cuts.Quantile(0.99)),
		Counters: map[string]int64{
			"candidates":   int64(rep.Candidates),
			"total_probes": rep.TotalProbes,
		},
	}
	if replayed > 0 {
		// Higher-is-better: lives in Rates so benchdiff gates a DROP in
		// exploration throughput, not a rise.
		e.Rates = map[string]float64{
			"branches_per_virtual_sec": float64(rep.Explored) / replayed.Seconds(),
		}
	}
	return e, nil
}

// benchPoint runs one sync-write configuration on a fresh rig. With a
// timeline bucket it also attaches an aggregator to every layer of the rig
// and exports the per-configuration occupancy timeline next to tlBase.
func benchPoint(system string, mode workload.Mode, sizeKB, writes int, seed uint64, tlBucket time.Duration, tlBase string) (benchfmt.Entry, error) {
	env := sim.NewEnv()
	defer env.Close()
	var agg *timeline.Aggregator
	if tlBucket > 0 {
		agg = timeline.New(tlBucket)
	}
	sc := obs.Scope{Timeline: agg}
	env.SetScope(sc)
	var dev blockdev.Device
	var drv *trail.Driver
	switch system {
	case "trail":
		log := disk.New(env, disk.ST41601N())
		if err := trail.Format(log); err != nil {
			return benchfmt.Entry{}, err
		}
		data := disk.New(env, disk.WDCaviar())
		var err error
		drv, err = trail.NewDriver(env, log, []*disk.Disk{data}, trail.Config{})
		if err != nil {
			return benchfmt.Entry{}, err
		}
		dev = drv.Dev(0)
		drv.SetScope(sc)
	default:
		d := disk.New(env, disk.WDCaviar())
		std := stddisk.New(env, d, blockdev.DevID{Major: 3}, sched.LOOK)
		std.SetScope(sc, "disk0")
		dev = std
	}
	res, err := workload.RunSyncWrites(env, dev, workload.SyncWriteConfig{
		Mode:             mode,
		WriteSize:        sizeKB * 1024,
		Processes:        1,
		WritesPerProcess: writes,
		Seed:             seed,
	})
	if err != nil {
		return benchfmt.Entry{}, fmt.Errorf("bench %s/%v/%dKB: %w", system, mode, sizeKB, err)
	}
	e := benchfmt.Entry{
		Name:   fmt.Sprintf("sync-write/%s/%v/%dKB", system, mode, sizeKB),
		Count:  res.Latency.Count(),
		MeanUS: usFloat(res.Latency.Mean()),
		P50US:  usFloat(res.Latency.Quantile(0.50)),
		P99US:  usFloat(res.Latency.Quantile(0.99)),
	}
	if drv != nil {
		e.Counters = drv.Stats().Counters().Snapshot()
	}
	if agg != nil {
		agg.Finish(int64(env.Now()))
		if err := writeTimeline(timelinePath(tlBase, e.Name), agg); err != nil {
			return benchfmt.Entry{}, err
		}
	}
	return e, nil
}

// timelinePath inserts the slash-mangled configuration name before the base
// path's extension: "timeline.csv" + "sync-write/trail/sparse/1KB" ->
// "timeline-sync-write-trail-sparse-1KB.csv".
func timelinePath(base, name string) string {
	name = strings.ReplaceAll(name, "/", "-")
	if i := strings.LastIndexByte(base, '.'); i > 0 {
		return base[:i] + "-" + name + base[i:]
	}
	return base + "-" + name
}

// writeTimeline exports the finished aggregator to path: JSON for .json,
// the CSV exposition otherwise. Both forms are byte-deterministic.
func writeTimeline(path string, agg *timeline.Aggregator) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = agg.WriteJSON(f)
	} else {
		err = agg.WriteCSV(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// usFloat converts a duration to microseconds.
func usFloat(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1000 }
