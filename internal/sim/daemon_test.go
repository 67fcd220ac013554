package sim

import (
	"testing"
	"time"

	"tracklog/internal/obs"
	"tracklog/internal/trace"
)

// A daemon process must not keep the simulation alive: Run returns when only
// daemon events remain queued.
func TestDaemonDoesNotKeepRunAlive(t *testing.T) {
	env := NewEnv()
	defer env.Close()

	var samples []Time
	env.GoDaemon("sampler", func(p *Proc) {
		for {
			samples = append(samples, p.Now())
			p.Sleep(time.Millisecond)
		}
	})
	env.Go("worker", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
	})

	end := env.Run()
	if end != Time(10*time.Millisecond) {
		t.Fatalf("Run ended at %v, want 10ms (daemon kept the clock going?)", end)
	}
	// The sampler ran at 0, 1ms, ..., 10ms alongside the worker.
	if len(samples) < 10 {
		t.Fatalf("daemon sampled %d times, want >= 10", len(samples))
	}
	for i, s := range samples {
		if s != Time(i)*Time(time.Millisecond) {
			t.Fatalf("sample %d at %v, want %v", i, s, Time(i)*Time(time.Millisecond))
		}
	}
}

// With no non-daemon work at all, Run must return immediately at time zero.
func TestDaemonOnlyRunReturnsImmediately(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	env.GoDaemon("idle", func(p *Proc) {
		for {
			p.Sleep(time.Second)
		}
	})
	if end := env.Run(); end != 0 {
		t.Fatalf("daemon-only Run ended at %v, want 0", end)
	}
}

// Attaching a tracer must not change virtual-time behaviour: same program,
// same timestamps, with and without a tracer.
func TestTracerDoesNotPerturbVirtualTime(t *testing.T) {
	run := func(tr *trace.Tracer) []Time {
		env := NewEnv()
		defer env.Close()
		env.SetScope(obs.Scope{Trace: tr})
		var stamps []Time
		ev := NewEvent(env)
		env.Go("a", func(p *Proc) {
			p.Sleep(3 * time.Millisecond)
			stamps = append(stamps, p.Now())
			ev.Trigger()
		})
		env.Go("b", func(p *Proc) {
			ev.Wait(p)
			p.Sleep(time.Millisecond)
			stamps = append(stamps, p.Now())
		})
		env.Run()
		return stamps
	}

	plain := run(nil)
	traced := run(trace.New(0))
	if len(plain) != len(traced) {
		t.Fatalf("different event counts: %d vs %d", len(plain), len(traced))
	}
	for i := range plain {
		if plain[i] != traced[i] {
			t.Fatalf("stamp %d: %v untraced vs %v traced", i, plain[i], traced[i])
		}
	}
}

// The kernel emits process lifecycle events into an attached tracer.
func TestKernelEmitsLifecycleEvents(t *testing.T) {
	tr := trace.New(0)
	env := NewEnv()
	defer env.Close()
	env.SetScope(obs.Scope{Trace: tr})
	env.Go("p1", func(p *Proc) { p.Sleep(time.Millisecond) })
	env.Run()

	var start, end bool
	for _, ev := range tr.Events() {
		if ev.Track != "p1" {
			continue
		}
		switch ev.Kind {
		case trace.KProcStart:
			start = true
		case trace.KProcEnd:
			end = true
			if ev.At != int64(time.Millisecond) {
				t.Fatalf("proc-end at %d, want 1ms", ev.At)
			}
		}
	}
	if !start || !end {
		t.Fatalf("lifecycle events missing: start=%v end=%v", start, end)
	}
}
