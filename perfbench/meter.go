package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// meter brackets a timed phase: host time, heap allocations, live heap at
// the end, and (traced) a CPU profile of exactly that phase.
type meter struct {
	traced bool
	prof   bytes.Buffer
	ms     runtime.MemStats
	t0     time.Time
}

// startTimed collects garbage left by set-up, then starts the clock.
func startTimed(traced bool) (*meter, error) {
	m := &meter{traced: traced}
	runtime.GC()
	runtime.ReadMemStats(&m.ms)
	if traced {
		if err := pprof.StartCPUProfile(&m.prof); err != nil {
			return nil, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	m.t0 = time.Now()
	return m, nil
}

// stop ends the timed phase and records it in o. The caller must still
// reference the world, so the live heap after the forced GC includes it.
func (m *meter) stop(o *outcome) {
	o.timed = time.Since(m.t0)
	if m.traced {
		pprof.StopCPUProfile()
		o.profiles = append(o.profiles, m.prof.Bytes())
	}
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	o.mallocs = end.Mallocs - m.ms.Mallocs
	runtime.GC()
	runtime.ReadMemStats(&end)
	o.heapLive = end.HeapAlloc
}

// peakRSSKB returns this process's peak resident set (VmHWM) in kB.
func peakRSSKB() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.Sys / 1024)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err == nil {
				return kb
			}
		}
	}
	return 0
}

// maxRSSKB is the peak RSS of whichever process ran the repetitions: this
// one, or the helper processes a workload reported.
func maxRSSKB(reps []*outcome) int64 {
	kb := peakRSSKB()
	for _, o := range reps {
		kb = max(kb, o.rssKB)
	}
	return kb
}

// profileLayers are the layers CPU samples are attributed to (profile.go).
var profileLayers = []string{
	"sim", "disk", "sched", "trail", "stddisk", "raid", "wal", "txn",
	"kvdb", "bufcache", "tpcc", "crashexplore", "observers", "other", "bench", "runtime",
}

type layerMetric struct{ name, unit string }

// layerMetrics declares every per-layer metric; a workload that bypasses a
// layer reports 0 for it. Counts come from the layers' Stats/KernelStats
// getters; *_ms and *_s values named after crashexplore are host times.
var layerMetrics = func() []layerMetric {
	m := []layerMetric{
		{"sim.events_per_op", "events"},
		{"sim.wakeups_per_op", "wakeups"},
		{"sim.procs_per_op", "procs"},
		{"sim.queue_peak", "events"},
		{"sim.ns_per_event", "ns"},
		{"disk.accesses_per_op", "accesses"},
		{"disk.busy_frac.log", "ratio"},
		{"disk.busy_frac.data", "ratio"},
		{"disk.busy_frac.member", "ratio"},
		{"disk.seek_ms_per_access", "ms"},
		{"disk.rotate_ms_per_access", "ms"},
		{"sched.queue_wait_ms", "ms"},
		{"sched.max_depth", "requests"},
		{"trail.records_per_write", "records"},
		{"trail.repositions_per_kwrite", "repositions"},
		{"trail.writebacks_per_write", "writebacks"},
		{"trail.staged_peak", "KB"},
		{"trail.reads_from_staging", "count"},
		{"trail.log_full_stalls", "count"},
		{"raid.device_ios_per_op", "ios"},
		{"wal.flushes_per_txn", "flushes"},
		{"wal.io_ms_per_txn", "ms"},
		{"txn.lock_wait_ms_per_txn", "ms"},
		{"txn.aborts", "count"},
		{"bufcache.hit_rate", "ratio"},
		{"bufcache.node_loads_per_txn", "loads"},
		{"bufcache.dirty_writes_per_txn", "writes"},
		{"tpcc.load_s", "s"},
		{"crashexplore.probes", "count"},
		{"crashexplore.census_s", "s"},
		{"crashexplore.replay_events_per_branch", "events"},
		{"crashexplore.build_ms_per_branch", "ms"},
		{"crashexplore.replay_ms_per_branch", "ms"},
		{"crashexplore.recover_ms_per_branch", "ms"},
		{"crashexplore.lost_branches", "count"},
		{"crashexplore.torn_branches", "count"},
		{"crashexplore.error_branches", "count"},
		{"crashexplore.runaway_branches", "count"},
		{"trace_overhead_frac", "ratio"},
	}
	for _, l := range profileLayers {
		m = append(m, layerMetric{l + ".cpu_us_per_op", "us"}, layerMetric{l + ".cpu_samples", "count"})
	}
	return m
}()
