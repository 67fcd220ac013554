package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"tracklog/internal/benchfmt"
	"tracklog/internal/crashexplore/stacks"
	"tracklog/internal/obs"
	"tracklog/internal/sim"
	"tracklog/internal/telemetry"
)

// The satellite acceptance test: two full simbench runs over every world
// must produce byte-identical deterministic artifacts — the benchfmt
// summary, the stdout report, and every per-world telemetry export — with
// the wall-clock side channel confined to stderr (never compared).
func TestTwoRunByteIdenticalArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four worlds twice")
	}
	runOnce := func(dir string) (stdout string, files map[string][]byte) {
		var out, errb bytes.Buffer
		args := []string{
			"-writes", "60",
			"-json", filepath.Join(dir, "sb.json"),
			"-telemetry", filepath.Join(dir, "sb.prom"),
		}
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("exit %d\n%s%s", code, out.String(), errb.String())
		}
		files = make(map[string][]byte)
		names, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, de := range names {
			data, err := os.ReadFile(filepath.Join(dir, de.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[de.Name()] = data
		}
		return out.String(), files
	}

	d1, d2 := t.TempDir(), t.TempDir()
	out1, files1 := runOnce(d1)
	out2, files2 := runOnce(d2)

	// Stdout embeds the -telemetry paths, which differ between temp dirs;
	// normalize before comparing.
	norm := func(s, dir string) string { return string(bytes.ReplaceAll([]byte(s), []byte(dir), []byte("DIR"))) }
	if norm(out1, d1) != norm(out2, d2) {
		t.Errorf("stdout differs between runs:\n--- run1\n%s--- run2\n%s", out1, out2)
	}
	if len(files1) != len(files2) {
		t.Fatalf("file sets differ: %d vs %d", len(files1), len(files2))
	}
	for name, data1 := range files1 {
		data2, ok := files2[name]
		if !ok {
			t.Fatalf("run2 missing %s", name)
		}
		if !bytes.Equal(data1, data2) {
			t.Errorf("%s differs between same-seed runs", name)
		}
	}
	// One telemetry export per world plus the summary.
	wantFiles := []string{"sb.json", "sb-trail.prom", "sb-stddisk.prom", "sb-raid5.prom", "sb-wal.prom"}
	for _, name := range wantFiles {
		if _, ok := files1[name]; !ok {
			t.Errorf("missing artifact %s", name)
		}
	}
}

// Every instrumented component (and the kernel) must accept a zero Scope as
// a no-op: the nil-is-disabled discipline that keeps un-instrumented worlds
// at zero overhead.
func TestNilRegistryIsNoOpInEveryWorld(t *testing.T) {
	for _, name := range []string{"trail", "stddisk", "raid5", "wal"} {
		name := name
		t.Run(name, func(t *testing.T) {
			st, err := stacks.ByName(name, "", 0)
			if err != nil {
				t.Fatal(err)
			}
			env := sim.NewEnv()
			defer env.Close()
			env.SetScope(obs.Scope{})
			wf, err := st.Build(env)
			if err != nil {
				t.Fatal(err)
			}
			if st.Observe == nil {
				t.Fatal("stack has no Observe hook")
			}
			st.Observe(obs.Scope{}) // must not panic or register anything
			env.Go("w", func(p *sim.Proc) {
				for i := 0; i < 2*st.Slots; i++ {
					if err := wf(p, i%st.Slots, i/st.Slots+1); err != nil {
						t.Errorf("write %d: %v", i, err)
						return
					}
				}
			})
			env.Run()
		})
	}
}

// -append must merge into an existing benchfmt file: the header and foreign
// entries survive, prior simbench/ entries are replaced, not duplicated.
func TestAppendMergesIntoExistingSummary(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	existing := &benchfmt.File{
		Writes: 200,
		Seed:   7,
		Experiments: []benchfmt.Entry{
			{Name: "sync-write/trail/sparse/1KB", Count: 200, MeanUS: 2000, P50US: 1900, P99US: 4000},
			{Name: "simbench/trail", Count: 10, MeanUS: 1, P50US: 1, P99US: 1}, // stale, must be replaced
		},
	}
	if err := existing.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-worlds", "stddisk", "-writes", "20", "-json", path, "-append"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out.String(), errb.String())
	}
	got, err := benchfmt.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Writes != 200 || got.Seed != 7 {
		t.Errorf("header not preserved: writes=%d seed=%d", got.Writes, got.Seed)
	}
	if got.Entry("sync-write/trail/sparse/1KB") == nil {
		t.Error("foreign entry dropped by -append")
	}
	if got.Entry("simbench/trail") != nil {
		t.Error("stale simbench/trail entry not replaced")
	}
	e := got.Entry("simbench/stddisk")
	if e == nil {
		t.Fatal("new simbench/stddisk entry missing")
	}
	if e.Count != 20 || e.Rates["events_per_virtual_sec"] <= 0 {
		t.Errorf("entry malformed: count=%d rates=%v", e.Count, e.Rates)
	}
	if e.Counters["events_dispatched"] <= 0 {
		t.Errorf("kernel counters missing: %v", e.Counters)
	}
}

// The telemetry export must parse back through the shared exposition parser
// and contain both kernel series and component series for the world.
func TestTelemetryExportRoundTrips(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	args := []string{"-worlds", "trail", "-writes", "30", "-telemetry", filepath.Join(dir, "t.prom")}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out.String(), errb.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "t-trail.prom"))
	if err != nil {
		t.Fatal(err)
	}
	vals, err := telemetry.ParseProm(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("export does not parse: %v", err)
	}
	for _, key := range []string{
		"tracklog_sim_events_dispatched_total",
		"tracklog_sim_virtual_time_ms",
		`tracklog_disk_utilization{disk="log0"}`,
	} {
		if _, ok := vals[key]; !ok {
			t.Errorf("export missing series %s", key)
		}
	}
	if vals["tracklog_sim_events_dispatched_total"] <= 0 {
		t.Error("kernel dispatched counter is zero in export")
	}
}

func TestTelemetryPathInsertsWorld(t *testing.T) {
	for _, tc := range []struct{ base, world, want string }{
		{"sim.prom", "trail", "sim-trail.prom"},
		{"out/sim.json", "wal", "out/sim-wal.json"},
		{"noext", "raid5", "noext-raid5"},
	} {
		if got := telemetryPath(tc.base, tc.world); got != tc.want {
			t.Errorf("telemetryPath(%q, %q) = %q, want %q", tc.base, tc.world, got, tc.want)
		}
	}
}
