package sim

import (
	"strings"
	"testing"
	"time"

	"tracklog/internal/obs"
	"tracklog/internal/telemetry"
)

// workload is a small deterministic mix of sleeps, events, and process
// churn that exercises every kernel counter.
func kernelWorkload(env *Env) {
	done := NewEvent(env)
	for i := 0; i < 4; i++ {
		i := i
		env.Go("worker", func(p *Proc) {
			for j := 0; j < 10; j++ {
				p.Sleep(time.Duration(i+1) * time.Millisecond)
			}
			if i == 3 {
				done.Trigger()
			} else {
				done.Wait(p)
			}
		})
	}
	env.Run()
}

func TestKernelStatsDeterministic(t *testing.T) {
	run := func() KernelStats {
		env := NewEnv()
		defer env.Close()
		kernelWorkload(env)
		return env.KernelStats()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same-seed kernel stats differ:\n%+v\n%+v", a, b)
	}
	if a.EventsDispatched == 0 || a.HeapPushes == 0 || a.HeapPops == 0 || a.Wakeups == 0 {
		t.Errorf("counters not exercised: %+v", a)
	}
	if a.ProcsSpawned != 4 || a.ProcsFinished != 4 {
		t.Errorf("proc lifecycle counts = %d/%d, want 4/4", a.ProcsSpawned, a.ProcsFinished)
	}
	if a.QueuePeak <= 0 || a.ProcsPeak != 4 {
		t.Errorf("peaks = %d/%d", a.QueuePeak, a.ProcsPeak)
	}
}

func TestKernelStatsDelta(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	kernelWorkload(env)
	base := env.KernelStats()
	kernelWorkload(env)
	d := env.KernelStats().Delta(base)
	if d.EventsDispatched <= 0 || d.EventsDispatched >= base.EventsDispatched*2 {
		t.Errorf("delta dispatched = %d (base %d)", d.EventsDispatched, base.EventsDispatched)
	}
	if d.ProcsSpawned != 4 {
		t.Errorf("delta spawned = %d, want 4", d.ProcsSpawned)
	}
	// Peaks are whole-run high-water marks, carried over unchanged.
	if d.ProcsPeak != env.KernelStats().ProcsPeak {
		t.Errorf("delta peak = %d, want carried %d", d.ProcsPeak, env.KernelStats().ProcsPeak)
	}
}

// The metrics export must be byte-identical across same-seed runs: the
// registry holds only virtual-time state.
func TestSetMetricsExportDeterministic(t *testing.T) {
	export := func() string {
		env := NewEnv()
		defer env.Close()
		reg := telemetry.NewRegistry()
		env.SetScope(obs.Scope{Metrics: reg})
		kernelWorkload(env)
		var sb strings.Builder
		if err := reg.WriteProm(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	a, b := export(), export()
	if a != b {
		t.Errorf("same-seed exports differ:\n%s\nvs\n%s", a, b)
	}
	vals, err := telemetry.ParseProm(strings.NewReader(a))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if vals["tracklog_sim_events_dispatched_total"] <= 0 {
		t.Error("dispatched counter missing or zero in export")
	}
	if vals["tracklog_sim_procs_spawned_total"] != 4 {
		t.Errorf("spawned = %v, want 4", vals["tracklog_sim_procs_spawned_total"])
	}
	if vals["tracklog_sim_dispatch_queue_depth_count"] != vals["tracklog_sim_events_dispatched_total"] {
		t.Errorf("dispatch-depth histogram count %v != dispatched %v",
			vals["tracklog_sim_dispatch_queue_depth_count"], vals["tracklog_sim_events_dispatched_total"])
	}
}

// Attaching metrics must not perturb the simulation, and a nil registry
// must be a no-op: the observed and unobserved worlds stay bit-identical in
// virtual time.
func TestSetMetricsDoesNotPerturbSimulation(t *testing.T) {
	run := func(wire func(*Env)) (Time, KernelStats) {
		env := NewEnv()
		defer env.Close()
		wire(env)
		kernelWorkload(env)
		return env.Now(), env.KernelStats()
	}
	plainT, plainKS := run(func(*Env) {})
	nilT, nilKS := run(func(env *Env) { env.SetScope(obs.Scope{}) })
	regT, regKS := run(func(env *Env) { env.SetScope(obs.Scope{Metrics: telemetry.NewRegistry()}) })
	if plainT != nilT || plainT != regT {
		t.Errorf("final times diverge: plain=%v nil=%v reg=%v", plainT, nilT, regT)
	}
	if plainKS != nilKS || plainKS != regKS {
		t.Errorf("kernel stats diverge:\nplain %+v\nnil   %+v\nreg   %+v", plainKS, nilKS, regKS)
	}
}
