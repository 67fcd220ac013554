package main

import (
	"fmt"
	"time"

	"tracklog/internal/disk"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/trail"
)

// The helpers below turn the layers' public getters into per-layer metrics.
// Every value they produce is a deterministic function of the seed.

// kernelMetrics records the kernel's work per op. It returns the keys a
// traced repetition's sampler daemon changes.
func kernelMetrics(det map[string]float64, k sim.KernelStats, ops int64) []string {
	det["sim.events_per_op"] = float64(k.EventsDispatched) / float64(ops)
	det["sim.wakeups_per_op"] = float64(k.Wakeups) / float64(ops)
	det["sim.procs_per_op"] = float64(k.ProcsSpawned) / float64(ops)
	det["sim.queue_peak"] = float64(k.QueuePeak)
	return []string{"sim.events_per_op", "sim.wakeups_per_op", "sim.procs_per_op", "sim.queue_peak"}
}

// addKernel sums the kernel counters kernelMetrics reads; the peak is the
// larger of the two.
func addKernel(a, b sim.KernelStats) sim.KernelStats {
	return sim.KernelStats{
		EventsDispatched: a.EventsDispatched + b.EventsDispatched,
		Wakeups:          a.Wakeups + b.Wakeups,
		ProcsSpawned:     a.ProcsSpawned + b.ProcsSpawned,
		QueuePeak:        max(a.QueuePeak, b.QueuePeak),
	}
}

// diskTally sums drive statistics by role: "log", "data" or "member".
type diskTally struct {
	accesses     int64
	seek, rotate time.Duration
	busy, span   map[string]time.Duration
}

// add counts one drive's statistics over a virtual span of its role's run.
func (t *diskTally) add(role string, s disk.Stats, span time.Duration) {
	if t.busy == nil {
		t.busy, t.span = map[string]time.Duration{}, map[string]time.Duration{}
	}
	t.accesses += s.Reads + s.Writes
	t.seek += s.SeekTime
	t.rotate += s.RotateTime
	t.busy[role] += s.Busy
	t.span[role] += span
}

func (t *diskTally) record(det map[string]float64, ops int64) {
	det["disk.accesses_per_op"] = float64(t.accesses) / float64(ops)
	for _, role := range []string{"log", "data", "member"} {
		if t.span[role] > 0 {
			det["disk.busy_frac."+role] = t.busy[role].Seconds() / t.span[role].Seconds()
		}
	}
	if t.accesses > 0 {
		det["disk.seek_ms_per_access"] = t.seek.Seconds() * 1e3 / float64(t.accesses)
		det["disk.rotate_ms_per_access"] = t.rotate.Seconds() * 1e3 / float64(t.accesses)
	}
}

// schedTally sums request-queue statistics.
type schedTally struct {
	wait      time.Duration
	completed int64
	maxDepth  int
}

func (t *schedTally) add(s sched.Stats) {
	t.wait += s.QueueWait
	t.completed += s.Completed
	t.maxDepth = max(t.maxDepth, s.MaxDepth)
}

func (t *schedTally) record(det map[string]float64) {
	if t.completed > 0 {
		det["sched.queue_wait_ms"] = t.wait.Seconds() * 1e3 / float64(t.completed)
	}
	det["sched.max_depth"] = float64(t.maxDepth)
}

func trailMetrics(det map[string]float64, s trail.Stats) {
	if s.Writes == 0 {
		return
	}
	w := float64(s.Writes)
	det["trail.records_per_write"] = float64(s.Records) / w
	det["trail.repositions_per_kwrite"] = 1000 * float64(s.Repositions) / w
	det["trail.writebacks_per_write"] = float64(s.WriteBacks) / w
	det["trail.reads_from_staging"] = float64(s.ReadsFromStaging)
	det["trail.log_full_stalls"] = float64(s.LogFullStalls)
}

// trailAdd returns a + k*b over the counters trailMetrics reads: k = 1
// sums two runs, k = -1 takes a delta since a baseline.
func trailAdd(a, b trail.Stats, k int64) trail.Stats {
	return trail.Stats{
		Writes:           a.Writes + k*b.Writes,
		Records:          a.Records + k*b.Records,
		Repositions:      a.Repositions + k*b.Repositions,
		WriteBacks:       a.WriteBacks + k*b.WriteBacks,
		ReadsFromStaging: a.ReadsFromStaging + k*b.ReadsFromStaging,
		LogFullStalls:    a.LogFullStalls + k*b.LogFullStalls,
	}
}

// stagedInterval is how often a traced run samples Trail's staging buffer.
// StagedBytes scans the whole buffer, so untraced runs never call it.
const stagedInterval = 100 * time.Millisecond

// sampleStaged starts a daemon that tracks the staging buffer's peak size
// in bytes; untraced runs get a constant zero and no daemon.
func sampleStaged(env *sim.Env, drv *trail.Driver, traced bool, every time.Duration) *int64 {
	peak := new(int64)
	if traced {
		env.GoDaemon("staged-sampler", func(p *sim.Proc) {
			for {
				*peak = max(*peak, drv.StagedBytes())
				p.Sleep(every)
			}
		})
	}
	return peak
}

// closeEnv ends a world's simulation. Env.Close unwinds only processes
// that have started, so the ones a set-up spawned and no run started are
// let start first, without advancing the clock; otherwise every set-up
// timed alone would leak their goroutines and the world they reference.
func closeEnv(env *sim.Env) {
	env.RunUntil(env.Now())
	env.Close()
}

// shutdown drains the driver and marks its log disk clean.
func shutdown(env *sim.Env, drv *trail.Driver) error {
	var err error
	env.Go("shutdown", func(p *sim.Proc) { err = drv.Shutdown(p) })
	env.Run()
	if err != nil {
		return fmt.Errorf("trail shutdown: %w", err)
	}
	return nil
}
