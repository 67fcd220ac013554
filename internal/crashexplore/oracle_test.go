package crashexplore_test

import (
	"fmt"
	"testing"
	"time"

	"tracklog/internal/crashexplore"
	"tracklog/internal/crashexplore/stacks"
	"tracklog/internal/disk"
	"tracklog/internal/fault"
	"tracklog/internal/sim"
	"tracklog/internal/snapshot"
)

// driveCapture fingerprints one drive's crash-surviving state.
type driveCapture struct {
	drive uint64 // name, capacity, derate, arm position and media
	plan  uint64 // the fault plan's snapshot; 0 without one
}

// driveDigest digests d's snapshot without its activity counters and its
// last-command time: a branch's world never runs, and Reattach resets the
// last-command time, so neither reaches recovery.
func driveDigest(t *testing.T, d *disk.Disk) uint64 {
	t.Helper()
	r, err := snapshot.NewReader(d.Snapshot(), "disk.Disk", 2)
	if err != nil {
		t.Fatal(err)
	}
	w := snapshot.NewWriter("drive-state", 1)
	w.String(r.StringVal()) // model
	w.I64(r.I64())          // capacity
	w.I64(r.I64())          // SeekDeratePPM
	w.Int(r.Int())          // arm cylinder
	w.Int(r.Int())          // arm head
	r.I64()                 // last-command time
	for i := 0; i < 9; i++ {
		r.I64() // Stats
	}
	n := r.Len()
	w.U32(uint32(n))
	for i := 0; i < n; i++ {
		w.I64(r.I64())
		w.Bytes32(r.Bytes32())
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	return snapshot.Digest(w.Bytes())
}

// capture fingerprints every drive built on env, in build order.
func capture(t *testing.T, env *sim.Env) []driveCapture {
	t.Helper()
	var out []driveCapture
	for _, dev := range env.Devices() {
		d := dev.(*disk.Disk)
		c := driveCapture{drive: driveDigest(t, d)}
		if plan, ok := d.Injector().(*fault.Plan); ok {
			c.plan = snapshot.Digest(plan.Snapshot())
		}
		out = append(out, c)
	}
	return out
}

// TestBranchSeedingOracle checks, for every candidate probe of a small
// Trail window, that the drives a branch hands to recovery hold exactly
// the media, arm position and fault-plan state that a census run's drives
// held when that probe fired — first without faults, then under the CI
// fault scenario. That scenario's first timeout fires near probe 2844, far
// past the CI window, so the faulted window is placed around it.
func TestBranchSeedingOracle(t *testing.T) {
	for _, c := range []struct {
		faults string
		opts   crashexplore.Options
	}{
		{"", crashexplore.Options{Seed: 3, Window: 200}},
		{"latent=2,timeout=2,twindow=120,tdelay=2ms",
			crashexplore.Options{Seed: 3, Skip: 2800, Window: 100, Horizon: 700 * time.Millisecond}},
	} {
		t.Run(fmt.Sprintf("faults=%q", c.faults), func(t *testing.T) {
			faults, opts := c.faults, c.opts
			inner, err := stacks.TrailStack(faults, 11)
			if err != nil {
				t.Fatal(err)
			}

			// The census: fingerprint the drives at every candidate probe.
			want := make(map[int64][]driveCapture)
			// Timeouts consumed and latents healed, at the first and the
			// last probe of the window.
			fired := []int64{}
			env := sim.NewEnv()
			write, err := inner.Build(env)
			if err != nil {
				t.Fatal(err)
			}
			env.SetProbeHook(func(ev sim.ProbeEvent) {
				if ev.Index < opts.Skip || ev.Index >= opts.Skip+opts.Window {
					return
				}
				want[ev.Index] = capture(t, env)
				for _, dev := range env.Devices() {
					if plan, ok := dev.(*disk.Disk).Injector().(*fault.Plan); ok {
						n := plan.Stats().Timeouts + plan.Stats().Repaired
						if len(fired) < 2 {
							fired = append(fired, n)
						}
						fired[len(fired)-1] = n
					}
				}
			})
			crashexplore.LaunchWorkload(env, opts.Seed, inner.Slots, write)
			horizon := opts.Horizon
			if horizon == 0 {
				horizon = crashexplore.DefaultHorizon
			}
			env.RunUntil(sim.Time(horizon))
			env.Close()

			// The exploration: fingerprint each branch's drives as
			// recovery receives them.
			var built *sim.Env
			var got [][]driveCapture
			st := inner
			st.Build = func(env *sim.Env) (crashexplore.WriteFunc, error) {
				built = env
				return inner.Build(env)
			}
			st.Recover = func(env *sim.Env) (crashexplore.ReadFunc, error) {
				got = append(got, capture(t, built))
				return inner.Recover(env)
			}
			rep, err := crashexplore.New(st, opts).Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(rep.Branches) || len(got) != int(opts.Window) {
				t.Fatalf("%d recoveries for %d branches, want %d", len(got), len(rep.Branches), opts.Window)
			}
			for i, b := range rep.Branches {
				w, ok := want[b.Event.Index]
				if !ok {
					t.Fatalf("branch at probe %d, which the census never saw", b.Event.Index)
				}
				if len(got[i]) != len(w) {
					t.Fatalf("probe %d: branch has %d drives, census %d", b.Event.Index, len(got[i]), len(w))
				}
				for j := range w {
					if got[i][j] != w[j] {
						t.Errorf("probe %d drive %d: branch state %+v, census state %+v", b.Event.Index, j, got[i][j], w[j])
					}
				}
			}
			if faults != "" && (len(fired) < 2 || fired[1] == fired[0]) {
				t.Errorf("faults fired %v at the window's ends: no timeout fired and no latent error healed inside it", fired)
			}
		})
	}
}
