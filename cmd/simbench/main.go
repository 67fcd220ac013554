// Command simbench benchmarks the simulator itself: it drives a fixed
// write workload through the four shared stack worlds ({trail, stddisk,
// raid5, wal+txn}, the same recipes cmd/crashexplore uses) and reports the
// DES kernel's cost per world on two strictly separated channels:
//
//   - Deterministic virtual-time series: per-write virtual latency,
//     kernel work counters (events dispatched, heap ops, wakeups), and
//     events per VIRTUAL second. These land in the benchfmt summary
//     (-json, gated by cmd/benchdiff) and the telemetry export
//     (-telemetry), both byte-identical across same-seed runs.
//   - Wall-clock side channel: events/sec, ns/event, and allocs/event
//     (runtime.MemStats deltas) on stderr and -wall-out. These vary run
//     to run and are excluded from every byte-compared artifact.
//
// Usage:
//
//	simbench [-worlds trail,stddisk,raid5,wal] [-writes N] [-seed N]
//	         [-json FILE] [-append] [-telemetry FILE[.prom|.json]]
//	         [-wall-out FILE] [-cpuprofile FILE] [-memprofile FILE]
//
// With -append, simbench merges its entries into an existing benchfmt file
// (replacing prior simbench/ entries) so the simulator-speed gate rides in
// BENCH_trail.json alongside the latency entries.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"tracklog/internal/benchfmt"
	"tracklog/internal/crashexplore/stacks"
	"tracklog/internal/metrics"
	"tracklog/internal/obs"
	"tracklog/internal/sim"
	"tracklog/internal/telemetry"
	"tracklog/internal/timeline"
)

func main() {
	start := time.Now() // wall-clock progress reporting; sanctioned in the virtualtime allowlist
	code := run(os.Args[1:], os.Stdout, os.Stderr)
	fmt.Fprintf(os.Stderr, "simbench: total wall time %v\n", time.Since(start).Round(time.Millisecond))
	os.Exit(code)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	worlds := fs.String("worlds", "trail,stddisk,raid5,wal", "comma-separated stack worlds to benchmark")
	writes := fs.Int("writes", 400, "writes (or transactions) per world")
	seed := fs.Uint64("seed", 1, "seed recorded in the summary (workload is fixed)")
	jsonOut := fs.String("json", "", "benchfmt summary file (empty disables)")
	appendJSON := fs.Bool("append", false, "merge into an existing -json file, replacing prior simbench/ entries")
	telemetryOut := fs.String("telemetry", "", "telemetry export base path; one file per world, world name inserted before the .prom/.json extension")
	tlBucket := fs.Duration("timeline", 0, "aggregate per-layer state occupancy into virtual-time buckets of this width (0 disables)")
	tlOut := fs.String("timeline-out", "timeline.csv", "timeline export base path for -timeline; one file per world, world name inserted before the extension (.json for JSON, else CSV)")
	wallOut := fs.String("wall-out", "", "wall-clock side-channel JSON file (nondeterministic; never byte-compare)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile (runtime/pprof) covering every world run")
	memProfile := fs.String("memprofile", "", "write a heap profile (runtime/pprof) after the last world")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	var entries []benchfmt.Entry
	var walls []wallWorld
	for _, name := range strings.Split(*worlds, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		entry, wall, err := runWorld(name, *writes, *telemetryOut, *tlBucket, *tlOut, stdout)
		if err != nil {
			return fail(fmt.Errorf("world %s: %w", name, err))
		}
		entries = append(entries, entry)
		walls = append(walls, wall)
		fmt.Fprintln(stderr, wall.Report.String())
	}

	if *jsonOut != "" {
		if err := writeSummary(*jsonOut, *appendJSON, *writes, *seed, entries); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "bench summary -> %s\n", *jsonOut)
	}
	if *wallOut != "" {
		if err := writeWallJSON(*wallOut, walls); err != nil {
			return fail(err)
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fail(err)
		}
	}
	return 0
}

// wallWorld pairs a world name with its nondeterministic host-cost report.
type wallWorld struct {
	Name   string
	Report telemetry.WallReport
}

// runWorld builds one stack world, drives the write workload, and splits
// the result: the returned benchfmt entry and everything written to stdout
// or the telemetry export are pure virtual-time (byte-deterministic); the
// wall report is the host-cost side channel.
func runWorld(name string, writes int, telemetryBase string, tlBucket time.Duration, tlBase string, stdout io.Writer) (benchfmt.Entry, wallWorld, error) {
	st, err := stacks.ByName(name, "", 0)
	if err != nil {
		return benchfmt.Entry{}, wallWorld{}, err
	}
	env := sim.NewEnv()
	defer env.Close()
	sc := obs.Scope{Metrics: telemetry.NewRegistry()}
	if tlBucket > 0 {
		sc.Timeline = timeline.New(tlBucket)
	}
	env.SetScope(sc)

	wf, err := st.Build(env)
	if err != nil {
		return benchfmt.Entry{}, wallWorld{}, err
	}
	if st.Observe != nil {
		st.Observe(sc)
	}

	// The WAL world runs the simulation during Build (catalog setup), so
	// measure the bench phase as a delta from here.
	base := env.KernelStats()
	vstart := env.Now()
	lat := metrics.NewSummary()
	var werr error
	wall := telemetry.StartWall()
	env.Go("bench", func(p *sim.Proc) {
		for i := 0; i < writes; i++ {
			slot, version := i%st.Slots, i/st.Slots+1
			t0 := p.Now()
			if err := wf(p, slot, version); err != nil {
				werr = fmt.Errorf("write %d: %w", i, err)
				return
			}
			lat.Add(p.Now().Sub(t0))
		}
	})
	env.Run()
	ks := env.KernelStats().Delta(base)
	report := wall.Stop(ks.EventsDispatched)
	if werr != nil {
		return benchfmt.Entry{}, wallWorld{}, werr
	}

	velapsed := env.Now().Sub(vstart)
	entry := benchfmt.Entry{
		Name:   "simbench/" + name,
		Count:  lat.Count(),
		MeanUS: usFloat(lat.Mean()),
		P50US:  usFloat(lat.Quantile(0.50)),
		P99US:  usFloat(lat.Quantile(0.99)),
		Rates: map[string]float64{
			"events_per_virtual_sec": float64(ks.EventsDispatched) / velapsed.Seconds(),
		},
		Counters: map[string]int64{
			"events_dispatched": ks.EventsDispatched,
			"heap_pushes":       ks.HeapPushes,
			"heap_pops":         ks.HeapPops,
			"proc_wakeups":      ks.Wakeups,
			"probe_events":      ks.ProbeEvents,
		},
	}
	fmt.Fprintf(stdout,
		"%-8s %6d writes in %v virtual — %d events, %.0f events/virtual-sec, mean %.1fus p99 %.1fus\n",
		name, writes, env.Now().Sub(vstart), ks.EventsDispatched,
		entry.Rates["events_per_virtual_sec"], entry.MeanUS, entry.P99US)

	if telemetryBase != "" {
		path := telemetryPath(telemetryBase, name)
		if err := writeTelemetry(path, sc.Metrics); err != nil {
			return benchfmt.Entry{}, wallWorld{}, err
		}
		fmt.Fprintf(stdout, "telemetry -> %s\n", path)
	}
	if sc.Timeline != nil {
		sc.Timeline.Finish(int64(env.Now()))
		path := telemetryPath(tlBase, name)
		if err := writeTimeline(path, sc.Timeline); err != nil {
			return benchfmt.Entry{}, wallWorld{}, err
		}
		fmt.Fprintf(stdout, "timeline -> %s\n", path)
	}
	return entry, wallWorld{Name: name, Report: report}, nil
}

// telemetryPath inserts the world name before the extension:
// "sim.prom" + "trail" -> "sim-trail.prom".
func telemetryPath(base, world string) string {
	if i := strings.LastIndexByte(base, '.'); i > 0 {
		return base[:i] + "-" + world + base[i:]
	}
	return base + "-" + world
}

// writeTelemetry exports reg to path: Prometheus text for .prom, JSON
// otherwise. Both forms are byte-deterministic.
func writeTelemetry(path string, reg *telemetry.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".prom") {
		err = reg.WriteProm(f)
	} else {
		err = reg.WriteJSON(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
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

// writeSummary writes (or with appendTo, merges into) the benchfmt file.
// Merging keeps the existing header fields and every non-simbench entry,
// so trailbench and simbench can share BENCH_trail.json.
func writeSummary(path string, appendTo bool, writes int, seed uint64, entries []benchfmt.Entry) error {
	bf := &benchfmt.File{Writes: writes, Seed: seed}
	if appendTo {
		if existing, err := benchfmt.ReadFile(path); err == nil {
			bf = existing
			kept := bf.Experiments[:0]
			for _, e := range bf.Experiments {
				if !strings.HasPrefix(e.Name, "simbench/") {
					kept = append(kept, e)
				}
			}
			bf.Experiments = kept
		} else if !os.IsNotExist(err) {
			return err
		}
	}
	bf.Experiments = append(bf.Experiments, entries...)
	return bf.WriteFile(path)
}

// writeWallJSON writes the nondeterministic host-cost side channel. The
// schema is deterministic (struct order); the values are not — nothing in
// this file may enter a byte-compare.
func writeWallJSON(path string, walls []wallWorld) error {
	type worldJSON struct {
		Name           string  `json:"name"`
		Events         int64   `json:"events"`
		WallNS         int64   `json:"wall_ns"`
		EventsPerSec   float64 `json:"events_per_sec"`
		NSPerEvent     float64 `json:"ns_per_event"`
		AllocsPerEvent float64 `json:"allocs_per_event"`
		BytesPerEvent  float64 `json:"bytes_per_event"`
	}
	out := struct {
		Note   string      `json:"note"`
		Worlds []worldJSON `json:"worlds"`
	}{Note: "wall-clock side channel: nondeterministic, never byte-compare"}
	for _, w := range walls {
		out.Worlds = append(out.Worlds, worldJSON{
			Name:           w.Name,
			Events:         w.Report.Events,
			WallNS:         w.Report.WallNS,
			EventsPerSec:   w.Report.EventsPerSec,
			NSPerEvent:     w.Report.NSPerEvent,
			AllocsPerEvent: w.Report.AllocsPerEvent,
			BytesPerEvent:  w.Report.BytesPerEvent,
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// usFloat converts a duration to microseconds.
func usFloat(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1000 }
