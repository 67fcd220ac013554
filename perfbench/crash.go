package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/crashexplore"
	"tracklog/internal/disk"
	"tracklog/internal/geom"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/stddisk"
	"tracklog/internal/trail"
)

// crashSweep explores every probe (ack, media write, write-back start and
// end, commit) of a run of eight slot writers on a Trail stack: each branch
// replays the seeded world from t=0 to its probe, cuts power, runs Trail
// recovery and audits every acknowledged write. Replay from t=0 makes the
// sweep O(N^2) in probes. The run is its first 1,200 probes, which is about
// 280 ms of virtual time and runs past the first wrap of the 1,440-sector
// log (about 218 ms, probe 925, on seed 3); a fixed probe count rather than
// a fixed virtual time keeps the work per sweep the same for every seed.
// An op is a branch. Exploration has no virtual latency of its own, so the
// virtual-time metrics describe the explored workload: the latency of the
// slot writers' acknowledged writes in the census, which runs on to a
// 1.5 s horizon so that its 99th percentile rests on some 1,000 writes.
//
// Past the wrap Trail has known defects, which the sweep counts as failed
// branches instead of hiding: recoveries that lose or tear acknowledged
// writes, and a recovery whose backward record-chain walk cycles forever
// without advancing virtual time (seed 1, probe 1030), allocating until the
// host runs out of memory. No virtual-time budget can stop a loop that
// never yields, so the sweep runs in helper processes of this binary
// (runCrashChild): a watchdog ends a helper whose heap or branch time runs
// away, and the parent records that branch as an error branch and resumes
// the sweep after it.
type crashSweep struct{}

const (
	crashBranches = 1200
	crashHorizon  = 1500 * time.Millisecond // length of the census run
	crashSlots    = 8
	crashSectors  = 4
	crashSpacing  = 64 // sectors between slots
	// recoverBudget bounds each branch's recovery in virtual time; normal
	// recoveries of this rig take 0.4 to 2 s.
	recoverBudget = 10 * time.Second
	// A helper whose heap passes runawayHeap, or whose current branch has
	// run for runawayTime of host time, is stopped by its watchdog. A
	// normal branch needs a few MB and a few ms.
	runawayHeap = 32 << 20
	runawayTime = 30 * time.Second
	// runawayExit is the helper's exit code after a runaway branch.
	runawayExit = 3
)

// crashLogParams is the small log disk of the repository's Trail crash rig
// (12 cylinders x 2 heads x 60 sectors), so a short run wraps the log.
func crashLogParams() disk.Params {
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

func crashDataParams() disk.Params {
	p := crashLogParams()
	p.Name = "d"
	p.Geom = geom.Uniform(100, 2, 60)
	return p
}

// crashRig is the benchmark's Trail stack recipe for the explorer. It keeps
// the most recent branch's parts so the helper can read their counters, and
// times Build and Recover.
type crashRig struct {
	traced         bool
	builds         int
	log, data      *disk.Disk
	drv            *trail.Driver
	recoverQueue   *sched.Queue
	buildEnv, rEnv *sim.Env
	buildT, recT   time.Duration
	acks           []time.Duration // census run only
	peak           *int64          // census run only
}

// build assembles a fresh log disk, data disk and Trail driver on env.
func (r *crashRig) build(env *sim.Env) error {
	r.log = disk.New(env, crashLogParams())
	if err := trail.Format(r.log); err != nil {
		return err
	}
	r.data = disk.New(env, crashDataParams())
	var err error
	r.drv, err = trail.NewDriver(env, r.log, []*disk.Disk{r.data}, trail.Config{})
	return err
}

func (r *crashRig) stack() crashexplore.Stack {
	return crashexplore.Stack{
		Slots: crashSlots,
		Build: func(env *sim.Env) (crashexplore.WriteFunc, error) {
			t0 := time.Now()
			defer func() { r.buildT = time.Since(t0) }()
			census := r.builds == 0
			r.builds++
			r.buildEnv, r.rEnv, r.recoverQueue = env, nil, nil
			if err := r.build(env); err != nil {
				return nil, err
			}
			if census {
				r.peak = sampleStaged(env, r.drv, r.traced, time.Millisecond)
			}
			dev := r.drv.Dev(0)
			return func(p *sim.Proc, slot, version int) error {
				start := p.Now()
				err := dev.Write(p, int64(slot*crashSpacing), crashSectors, crashexplore.Payload(slot, version, crashSectors))
				if census && err == nil {
					r.acks = append(r.acks, p.Now().Sub(start))
				}
				return err
			}, nil
		},
		Recover: func(env *sim.Env) (crashexplore.ReadFunc, error) {
			t0 := time.Now()
			defer func() { r.recT = time.Since(t0) }()
			r.rEnv = env
			r.log.Reattach(env)
			r.data.Reattach(env)
			id := blockdev.DevID{Major: 8, Minor: 0}
			sd := stddisk.New(env, r.data, id, sched.FIFO)
			r.recoverQueue = sd.Queue()
			var err error
			done := false
			env.Go("recover", func(p *sim.Proc) {
				_, err = trail.Recover(p, r.log, map[blockdev.DevID]blockdev.Device{id: sd}, trail.RecoverOptions{})
				done = true
			})
			env.RunUntil(sim.Time(recoverBudget))
			if !done {
				return nil, fmt.Errorf("recovery still running after %v of virtual time", recoverBudget)
			}
			if err != nil {
				return nil, err
			}
			return func(p *sim.Proc, slot int) (int, bool) {
				return crashexplore.ParseVersion(r.data.MediaRead(int64(slot*crashSpacing), crashSectors), slot, crashSectors)
			}, nil
		},
	}
}

// Helper output: one JSON object per line.
type crashCensus struct {
	Probes     int64
	Acks       []time.Duration
	StagedPeak int64
}

// crashBranch is one explored branch: its verdict, host times, and the
// counters of its replay world and (when recovery ran) recovery world.
type crashBranch struct {
	Index                int64
	Lost, Torn           int
	Err                  string
	Failed               bool
	Step, Build, Recover time.Duration
	Mallocs              uint64
	Replay, Recovery     sim.KernelStats
	Span                 time.Duration // virtual time of both worlds
	Log, Data            disk.Stats
	Queues               []sched.Stats
	Trail                trail.Stats
}

type crashEnd struct {
	// HeapLive and RSSKB are the largest readings taken between branches,
	// so a runaway branch's memory is not among them. Traced helpers take
	// none: their forced GCs would land in the profile.
	HeapLive uint64
	RSSKB    int64
	Profile  []byte
	Runaway  int64 // probe index of a runaway branch, or -1
	Reason   string
}

type crashLine struct {
	Census *crashCensus `json:",omitempty"`
	Branch *crashBranch `json:",omitempty"`
	End    *crashEnd    `json:",omitempty"`
}

// runCrashChild explores the branches at probe indices >= from and writes
// crashLines to standard output. It returns the process exit code.
func runCrashChild(seed uint64, from int64, traced bool) int {
	rig := &crashRig{traced: traced}
	x := crashexplore.New(rig.stack(), crashexplore.Options{
		Seed: seed, Skip: from, Window: crashBranches - from, Horizon: crashHorizon})
	out := bufio.NewWriter(os.Stdout)
	var mu sync.Mutex // guards out against the watchdog
	var prof bytes.Buffer
	// noteMemory takes the readings crashEnd reports, between branches.
	var heapLive, rssKB atomic.Int64
	noteMemory := func() {
		if traced {
			return
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heapLive.Store(max(heapLive.Load(), int64(ms.HeapAlloc)))
		rssKB.Store(peakRSSKB())
	}
	emit := func(l crashLine) {
		b, err := json.Marshal(l)
		if err != nil {
			panic(err) // every field is a plain value
		}
		out.Write(append(b, '\n'))
	}
	finish := func(runaway int64, reason string) {
		if traced {
			pprof.StopCPUProfile()
		}
		emit(crashLine{End: &crashEnd{HeapLive: uint64(heapLive.Load()), RSSKB: rssKB.Load(),
			Profile: prof.Bytes(), Runaway: runaway, Reason: reason}})
		out.Flush()
	}

	// next is the probe index of the branch in progress: candidates are
	// every probe from `from` on, explored in order.
	var next, branchStart atomic.Int64
	next.Store(from)
	branchStart.Store(time.Now().UnixNano())
	go func() {
		// The watchdog is instrumentation: its profile samples do not count.
		pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels(probeLabel, watchdogProbe)))
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		for range time.Tick(5 * time.Millisecond) {
			metrics.Read(sample)
			heap := sample[0].Value.Uint64()
			ran := time.Duration(time.Now().UnixNano() - branchStart.Load())
			if heap > runawayHeap || ran > runawayTime {
				mu.Lock()
				finish(next.Load(), fmt.Sprintf("heap %d MB after %v of host time in the branch", heap>>20, ran.Round(time.Millisecond)))
				os.Exit(runawayExit)
			}
		}
	}()

	// Allocations are counted per branch, so a runaway branch's do not
	// count. The two series add up to runtime.MemStats.Mallocs.
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}
	mallocs := func() uint64 {
		metrics.Read(allocs)
		return allocs[0].Value.Uint64() + allocs[1].Value.Uint64()
	}
	// The census is set-up (crashSweep.setup times it), not timed work.
	if err := x.Plan(); err != nil {
		fmt.Fprintln(os.Stderr, "crash-sweep:", err)
		return 1
	}
	mu.Lock()
	emit(crashLine{Census: &crashCensus{Probes: x.Report().TotalProbes, Acks: rig.acks, StagedPeak: *rig.peak}})
	mu.Unlock()
	noteMemory()
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			fmt.Fprintln(os.Stderr, "crash-sweep:", err)
			return 1
		}
	}

	for x.Remaining() > 0 {
		if traced {
			// The branch's processes inherit the label from this goroutine.
			pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels(probeLabel, strconv.FormatInt(next.Load(), 10))))
		}
		branchStart.Store(time.Now().UnixNano())
		a0, t0 := mallocs(), time.Now()
		b, _, err := x.Step()
		step, a := time.Since(t0), mallocs()-a0
		if err != nil {
			fmt.Fprintln(os.Stderr, "crash-sweep:", err)
			return 1
		}
		if b.Event.Index != next.Load() {
			fmt.Fprintf(os.Stderr, "crash-sweep: explored probe %d, expected %d\n", b.Event.Index, next.Load())
			return 1
		}
		mu.Lock()
		emit(crashLine{Branch: rig.record(b, step, a)})
		n := next.Add(1)
		mu.Unlock()
		if n%64 == 0 {
			noteMemory()
		}
	}
	noteMemory()
	mu.Lock()
	finish(-1, "")
	runtime.KeepAlive(x)
	return 0
}

// record describes an explored branch from the rig's most recent worlds.
func (r *crashRig) record(b *crashexplore.Branch, step time.Duration, mallocs uint64) *crashBranch {
	c := &crashBranch{
		Index: b.Event.Index, Lost: b.Lost, Torn: b.Torn, Err: b.Err, Failed: b.Failed(),
		Step: step, Build: r.buildT, Mallocs: mallocs,
		Replay: r.buildEnv.KernelStats(), Span: r.buildEnv.Now().Duration(),
		Log: r.log.Stats(), Data: r.data.Stats(), Trail: r.drv.Stats(),
		Queues: []sched.Stats{r.drv.DataQueue(0).Stats()},
	}
	if r.rEnv != nil { // recovery ran
		c.Recover = r.recT
		c.Recovery = r.rEnv.KernelStats()
		c.Span += r.rEnv.Now().Duration()
	}
	if r.recoverQueue != nil {
		c.Queues = append(c.Queues, r.recoverQueue.Stats())
	}
	return c
}

// crashTally sums the branches of one sweep.
type crashTally struct {
	branches, failed, lost, torn, errors int64
	step, build, recover                 time.Duration
	mallocs                              uint64
	replayEvents                         int64
	kernel                               sim.KernelStats
	disk                                 diskTally
	sched                                schedTally
	trail                                trail.Stats
}

func (t *crashTally) add(b *crashBranch) {
	t.branches++
	if b.Failed {
		t.failed++
	}
	if b.Lost > 0 {
		t.lost++
	}
	if b.Torn > 0 {
		t.torn++
	}
	if b.Err != "" {
		t.errors++
	}
	t.step += b.Step
	t.build += b.Build
	t.recover += b.Recover
	t.mallocs += b.Mallocs
	t.replayEvents += b.Replay.EventsDispatched
	t.kernel = addKernel(addKernel(t.kernel, b.Replay), b.Recovery)
	t.disk.add("log", b.Log, b.Span)
	t.disk.add("data", b.Data, b.Span)
	for _, q := range b.Queues {
		t.sched.add(q)
	}
	t.trail = trailAdd(t.trail, b.Trail, 1)
}

// crashWorld is a crash sweep's parent side. Its set-up is the census: one
// run of the seeded world to the horizon that enumerates the probes to
// branch on. It runs in process (the census never recovers, so it cannot
// run away); each helper repeats it untimed, and the branches run there.
type crashWorld struct {
	seed   uint64
	census time.Duration
}

func (crashSweep) setup(seed uint64) (world, error) {
	t0 := time.Now()
	x := crashexplore.New((&crashRig{}).stack(), crashexplore.Options{Seed: seed, Window: crashBranches, Horizon: crashHorizon})
	if err := x.Plan(); err != nil {
		return nil, err
	}
	return &crashWorld{seed: seed, census: time.Since(t0)}, nil
}

func (*crashWorld) close() {}

func (w *crashWorld) run(traced bool) (*outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	o := newOutcome(0)
	o.findings = true
	var census *crashCensus
	var t crashTally
	var runaways int64
	digest := fnv.New64a()
	trace := "0"
	if traced {
		trace = "1"
	}
	for from := int64(0); from < crashBranches; {
		cmd := exec.Command(exe, "-crash-child", "-seed", strconv.FormatUint(w.seed, 10),
			"-from", strconv.FormatInt(from, 10), "-trace", trace)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		var exit *exec.ExitError
		if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == runawayExit) {
			return nil, fmt.Errorf("crash-sweep helper from probe %d: %w", from, err)
		}
		var end *crashEnd
		sc := bufio.NewScanner(bytes.NewReader(stdout))
		sc.Buffer(nil, 64<<20)
		for sc.Scan() {
			var l crashLine
			if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
				return nil, fmt.Errorf("crash-sweep helper output: %w", err)
			}
			switch {
			case l.Census != nil && census == nil:
				census = l.Census
			case l.Branch != nil:
				fmt.Fprintf(digest, "%d %d %d %q\n", l.Branch.Index, l.Branch.Lost, l.Branch.Torn, l.Branch.Err)
				t.add(l.Branch)
			case l.End != nil:
				end = l.End
			}
		}
		if census == nil || end == nil {
			return nil, fmt.Errorf("crash-sweep helper from probe %d ended without a report", from)
		}
		o.profiles = append(o.profiles, end.Profile)
		o.heapLive = max(o.heapLive, end.HeapLive)
		o.rssKB = max(o.rssKB, end.RSSKB)
		if end.Runaway < 0 {
			break
		}
		fmt.Fprintf(os.Stderr, "crash-sweep: seed %d probe %d: runaway recovery stopped (%s)\n", w.seed, end.Runaway, end.Reason)
		fmt.Fprintf(digest, "%d runaway\n", end.Runaway)
		o.skipProbes = append(o.skipProbes, strconv.FormatInt(end.Runaway, 10))
		runaways++
		from = end.Runaway + 1
	}

	o.attempted = min(crashBranches, census.Probes)
	o.ops = t.branches
	o.failed = t.failed + runaways
	o.timed = t.step
	o.mallocs = t.mallocs
	o.events = t.kernel.EventsDispatched
	o.setLatencies(census.Acks)
	o.vspan = crashHorizon
	o.det["model.branch_digest"] = float64(digest.Sum64() >> 12)
	kernelMetrics(o.det, t.kernel, t.branches) // the census's sampler is not in any branch
	t.disk.record(o.det, t.branches)
	t.sched.record(o.det)
	trailMetrics(o.det, t.trail)
	o.det["crashexplore.probes"] = float64(census.Probes)
	o.host["crashexplore.census_s"] = w.census.Seconds()
	n := float64(t.branches)
	o.det["crashexplore.replay_events_per_branch"] = float64(t.replayEvents) / n
	o.det["crashexplore.lost_branches"] = float64(t.lost)
	o.det["crashexplore.torn_branches"] = float64(t.torn)
	o.det["crashexplore.error_branches"] = float64(t.errors + runaways)
	o.det["crashexplore.runaway_branches"] = float64(runaways)
	if traced {
		o.det["trail.staged_peak"] = float64(census.StagedPeak) / 1024
	}
	o.host["crashexplore.build_ms_per_branch"] = t.build.Seconds() * 1e3 / n
	o.host["crashexplore.recover_ms_per_branch"] = t.recover.Seconds() * 1e3 / n
	o.host["crashexplore.replay_ms_per_branch"] = (t.step - t.build - t.recover).Seconds() * 1e3 / n
	return o, nil
}
