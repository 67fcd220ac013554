// Command perfbench is the repository's benchmark. It builds one workload
// from the storage layers' public constructors, runs it for a fixed host-time
// budget, checks the outputs and prints every metric by name with its unit.
//
//	perfbench --workload sync-sparse --seed 3 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of untraced runs; with
// --trace 1 it prints the per-layer metrics: each layer's counters from the
// same untraced runs plus a separate CPU-profiled run whose samples are
// attributed to layers (see profile.go). The last line of standard output
// is one JSON object; the lines before it are a human-readable copy.
//
// A run repeats the workload with the same seed until the budget is spent
// (at least twice), reports host-time medians across the repetitions, and
// exits nonzero if any two repetitions disagree on a virtual-time or
// deterministic metric: a host-only change must not alter model behaviour.
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workload is one benchmark input set.
type workload interface {
	// setup builds a fresh world for the seed; its host time is setup_s.
	setup(seed uint64) (world, error)
}

// world is one built instance of a workload.
type world interface {
	// run executes the timed phase, checks the outputs and reports.
	run(traced bool) (*outcome, error)
	close()
}

var workloads = map[string]workload{
	"sync-sparse": syncSparse{},
	"tpcc-trail":  tpccTrail{},
	"raid5-mixed": raid5Mixed{},
	"crash-sweep": crashSweep{},
}

func main() {
	name := flag.String("workload", "", "workload: sync-sparse, tpcc-trail, raid5-mixed or crash-sweep")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "host-time budget for the measured repetitions")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
	saturation := flag.Bool("saturation", false, "print the raid5-mixed array's virtual saturation rate and exit")
	crashChild := flag.Bool("crash-child", false, "internal: explore one crash-sweep segment (see crash.go)")
	from := flag.Int64("from", 0, "internal: first probe index a crash-sweep segment explores")
	flag.Parse()

	// The simulation runs one goroutine at a time; a second P serves the GC.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	switch {
	case *crashChild:
		os.Exit(runCrashChild(*seed, *from, *trace == 1))
	case *saturation:
		rate, err := raidSaturation(*seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Printf("raid5-mixed saturation: %.1f requests per virtual second\n", rate)
		return
	}

	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	s, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("# host: go=%s gomaxprocs=%d nproc=%d seed=%d revision=%s workload=%s repetitions=%d traced_repetitions=%d\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), *seed, revision(), *name, s.reps, s.tracedReps)
	fmt.Printf("# virtual latency samples per repetition: %d\n", s.vlatN)
	fmt.Printf("# ops_per_host_s by repetition: %s\n", strings.Trim(fmt.Sprint(s.rates), "[]"))
	metrics := s.endToEnd
	if *trace == 1 {
		metrics = s.perLayer
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-40s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{s.correct, s.attempted, s.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// revision is the VCS revision the binary was built from, when the build
// saw one.
func revision() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
	}
	return rev + dirty
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one repetition of a workload reports.
type outcome struct {
	ops, attempted, failed int64
	// vn ops have a virtual latency, with median vp50 and 99th percentile
	// vp99; vspan is the virtual time the ops took.
	vn         int
	vp50, vp99 time.Duration
	vspan      time.Duration
	// findings marks failed ops as defects the benchmark found in the
	// program under test (crash branches), rather than errors of its own.
	findings bool
	// det holds deterministic per-layer values: every repetition with the
	// same seed must reproduce them exactly. unstable lists det keys that a
	// traced repetition may change (its samplers add kernel events).
	det      map[string]float64
	unstable []string
	// host holds host-time per-layer values; the benchmark reports their
	// median across repetitions.
	host map[string]float64
	// events is the kernel events dispatched in the timed phase.
	events int64

	// Filled by meter.stop, or by a workload that measures elsewhere.
	timed    time.Duration
	mallocs  uint64
	heapLive uint64
	rssKB    int64 // peak RSS of a helper process that ran the work (0 = none)
	profiles [][]byte
	// skipProbes are probeLabel values whose profile samples do not count.
	skipProbes []string
}

// summary is one invocation's result.
type summary struct {
	correct            bool
	attempted, failed  int64
	reps, tracedReps   int
	vlatN              int
	rates              []float64 // ops_per_host_s of each untraced repetition
	endToEnd, perLayer map[string]metric
}

// Set-up is timed in samples of at least setupSpan of host time each, one
// set-up or several back to back, so that millisecond set-ups are not lost
// in timer and scheduling noise; setup_s is the median of setupSamples.
const (
	setupSpan    = 50 * time.Millisecond
	setupSamples = 15
)

// measure runs the workload's repetitions and derives every metric. An
// untraced invocation spends its budget on untraced repetitions; a traced
// one spends half on untraced repetitions (the per-layer counts and host
// times) and half on CPU-profiled ones.
func measure(w workload, seed uint64, budget time.Duration, traced bool) (*summary, error) {
	untraced := budget
	if traced {
		untraced = budget / 2
	}
	start := time.Now()
	var reps []*outcome
	var setups []float64
	for len(reps) < 2 || time.Since(start) < untraced {
		o, setup, err := repetition(w, seed, false)
		if err != nil {
			return nil, err
		}
		reps = append(reps, o)
		setups = append(setups, setup)
	}
	if !traced && median(setups) < setupSpan.Seconds() {
		setups = setups[:0]
		for len(setups) < setupSamples {
			setup, err := batchedSetup(w, seed)
			if err != nil {
				return nil, err
			}
			setups = append(setups, setup)
		}
	}
	for i, o := range reps[1:] {
		if err := sameModel(reps[0], o, nil); err != nil {
			return nil, fmt.Errorf("determinism check: repetition %d differs from repetition 0: %w", i+1, err)
		}
	}
	var traces []*outcome
	if traced {
		start := time.Now()
		for len(traces) < 1 || time.Since(start) < budget-untraced {
			o, _, err := repetition(w, seed, true)
			if err != nil {
				return nil, err
			}
			if err := sameModel(reps[0], o, o.unstable); err != nil {
				return nil, fmt.Errorf("determinism check: traced repetition differs from untraced: %w", err)
			}
			traces = append(traces, o)
		}
	}

	r := reps[0]
	s := &summary{
		correct:    r.failed == 0 || r.findings,
		attempted:  r.attempted,
		failed:     r.failed,
		reps:       len(reps),
		tracedReps: len(traces),
		vlatN:      r.vn,
	}
	s.rates = collect(reps, func(o *outcome) float64 { return float64(o.ops) / o.timed.Seconds() })
	rate := median(s.rates)
	rss := float64(maxRSSKB(reps)) / 1e3
	vops := float64(r.vn) / r.vspan.Seconds()
	s.endToEnd = map[string]metric{
		"ops_per_host_s": {rate, "ops/s"},
		"setup_s":        {median(setups), "s"},
		"allocs_per_op":  {median(collect(reps, func(o *outcome) float64 { return float64(o.mallocs) / float64(o.ops) })), "allocs"},
		"heap_live_mb":   {median(collect(reps, func(o *outcome) float64 { return float64(o.heapLive) / 1e6 })), "MB"},
		"rss_peak_mb":    {rss, "MB"},
		"vlat_p50_us":    {r.vp50.Seconds() * 1e6, "us"},
		"vlat_p99_us":    {r.vp99.Seconds() * 1e6, "us"},
		"vops_per_s":     {vops, "ops/s"},
	}

	s.perLayer = map[string]metric{}
	for _, def := range layerMetrics {
		s.perLayer[def.name] = metric{0, def.unit}
	}
	set := func(name string, v float64) {
		def, ok := s.perLayer[name]
		if !ok {
			panic("perfbench: per-layer metric " + name + " is not declared")
		}
		def.Value = v
		s.perLayer[name] = def
	}
	for k, v := range r.det {
		if !strings.HasPrefix(k, "model.") {
			set(k, v)
		}
	}
	for k := range r.host {
		set(k, median(collect(reps, func(o *outcome) float64 { return o.host[k] })))
	}
	var events, timed float64
	for _, o := range reps {
		events += float64(o.events)
		timed += float64(o.timed.Nanoseconds())
	}
	set("sim.ns_per_event", timed/events)
	if traced {
		set("trail.staged_peak", traces[0].det["trail.staged_peak"])
		var ops int64
		var profiles [][]byte
		skip := map[string]bool{}
		for _, o := range traces {
			ops += o.ops
			profiles = append(profiles, o.profiles...)
			for _, p := range o.skipProbes {
				skip[p] = true
			}
		}
		samples, period, err := attribute(profiles, skip)
		if err != nil {
			return nil, err
		}
		for _, layer := range profileLayers {
			n := samples[layer]
			set(layer+".cpu_samples", float64(n))
			set(layer+".cpu_us_per_op", float64(n)*period.Seconds()*1e6/float64(ops))
		}
		tracedRate := median(collect(traces, func(o *outcome) float64 { return float64(o.ops) / o.timed.Seconds() }))
		set("trace_overhead_frac", 1-tracedRate/rate)
	}
	return s, nil
}

// newOutcome starts the report of a repetition that attempts n ops.
func newOutcome(n int64) *outcome {
	return &outcome{attempted: n, det: map[string]float64{}, host: map[string]float64{}}
}

// setLatencies records the ops' virtual latencies: their median, 99th
// percentile, and a digest of every sample for the determinism check.
func (o *outcome) setLatencies(v []time.Duration) {
	h := fnv.New64a()
	var b [8]byte
	for _, d := range v {
		binary.LittleEndian.PutUint64(b[:], uint64(d))
		h.Write(b[:])
	}
	o.det["model.vlat_digest"] = float64(h.Sum64() >> 12) // exact in a float64
	s := append([]time.Duration(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	o.vn, o.vp50, o.vp99 = len(s), quantile(s, 0.50), quantile(s, 0.99)

}

// repetition builds a world and runs its timed phase once.
func repetition(w workload, seed uint64, traced bool) (*outcome, float64, error) {
	wd, setup, err := timedSetup(w, seed)
	if err != nil {
		return nil, 0, err
	}
	defer wd.close()
	o, err := wd.run(traced)
	if err != nil {
		return nil, 0, err
	}
	if o.ops < 1 || o.attempted < 1 {
		return nil, 0, fmt.Errorf("repetition completed no ops")
	}
	return o, setup, nil
}

func timedSetup(w workload, seed uint64) (world, float64, error) {
	runtime.GC()
	t0 := time.Now()
	wd, err := w.setup(seed)
	if err != nil {
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	return wd, time.Since(t0).Seconds(), nil
}

// batchedSetup builds and closes worlds back to back until their set-ups
// add up to setupSpan, and returns the mean set-up time.
func batchedSetup(w workload, seed uint64) (float64, error) {
	runtime.GC()
	var total time.Duration
	n := 0
	for total < setupSpan {
		t0 := time.Now()
		wd, err := w.setup(seed)
		if err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		total += time.Since(t0)
		n++
		wd.close()
	}
	return total.Seconds() / float64(n), nil
}

// sameModel compares everything a repetition reports about the model
// (virtual latencies, failures and deterministic counts), skipping the
// listed det keys.
func sameModel(a, b *outcome, skip []string) error {
	if a.ops != b.ops || a.attempted != b.attempted || a.failed != b.failed {
		return fmt.Errorf("ops/attempted/failed %d/%d/%d vs %d/%d/%d", a.ops, a.attempted, a.failed, b.ops, b.attempted, b.failed)
	}
	if a.vspan != b.vspan || a.vn != b.vn || a.vp50 != b.vp50 || a.vp99 != b.vp99 {
		return fmt.Errorf("virtual span/samples/p50/p99 %v/%d/%v/%v vs %v/%d/%v/%v",
			a.vspan, a.vn, a.vp50, a.vp99, b.vspan, b.vn, b.vp50, b.vp99)
	}
	ignore := map[string]bool{"trail.staged_peak": true}
	for _, k := range skip {
		ignore[k] = true
	}
	for k, v := range a.det {
		if !ignore[k] && b.det[k] != v {
			return fmt.Errorf("%s: %v vs %v", k, v, b.det[k])
		}
	}
	for k, v := range b.det {
		if _, ok := a.det[k]; !ok && !ignore[k] {
			return fmt.Errorf("%s: missing vs %v", k, v)
		}
	}
	return nil
}

func collect(os []*outcome, f func(*outcome) float64) []float64 {
	out := make([]float64, len(os))
	for i, o := range os {
		out[i] = f(o)
	}
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}
