package main

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

func TestFrameLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"tracklog/internal/sim.(*Env).step":              "sim",
		"tracklog/internal/geom.(*Geometry).ToCHS":       "disk",
		"tracklog/internal/trail.(*Driver).StagedBytes":  "trail",
		"tracklog/internal/telemetry.(*Histogram).Add":   "observers",
		"tracklog/internal/blockdev.CheckRange":          "other",
		"tracklog.Open":                                  "other",
		"tracklog/internal/crashexplore.(*Explorer).Run": "crashexplore",
		"main.(*raidWorld).run.func1":                    "bench",
		"runtime.mallocgc":                               "",
		"tracklogger/x.F":                                "",
	} {
		if got := frameLayer(fn); got != want {
			t.Errorf("frameLayer(%q) = %q, want %q", fn, got, want)
		}
	}
}

//go:noinline
func spin(d time.Duration) (n int) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		n++
	}
	return n
}

// TestAttribute profiles this package spinning under a probe label and
// under the watchdog's label, and checks that the decoder charges the first
// spin's samples to the package's layer, drops them when that probe is
// skipped, and always drops the watchdog's. Under go test the package is not
// named main, so its layer is whatever frameLayer gives its import path.
func TestAttribute(t *testing.T) {
	layer := frameLayer(runtime.FuncForPC(reflect.ValueOf(spin).Pointer()).Name())
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	pprof.Do(context.Background(), pprof.Labels(probeLabel, "7"), func(context.Context) { spin(300 * time.Millisecond) })
	pprof.Do(context.Background(), pprof.Labels(probeLabel, watchdogProbe), func(context.Context) { spin(300 * time.Millisecond) })
	pprof.StopCPUProfile()

	samples, period, err := attribute([][]byte{buf.Bytes()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if period != 10*time.Millisecond {
		t.Errorf("period = %v, want 10ms", period)
	}
	if samples[layer] < 10 {
		t.Errorf("%s samples = %d of %v, want most of ~30", layer, samples[layer], samples)
	}
	skipped, _, err := attribute([][]byte{buf.Bytes()}, map[string]bool{"7": true})
	if err != nil {
		t.Fatal(err)
	}
	if skipped[layer] != 0 {
		t.Errorf("%s samples with probe 7 skipped = %d, want 0 (the watchdog's never count)", layer, skipped[layer])
	}
}

func TestEachFieldRejectsTruncation(t *testing.T) {
	// Field 2, length-delimited, claims 5 bytes but carries 1.
	if err := eachField([]byte{0x12, 0x05, 0x01}, func(int, uint64, []byte) error { return nil }); err == nil {
		t.Fatal("truncated message decoded without error")
	}
}
