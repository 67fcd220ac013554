package sim

import (
	"sort"
	"testing"
	"time"
)

// TestEventQueueMatchesSortOracle interleaves random pushes and pops —
// with heavy timestamp collisions, so the seq tie-break matters — and
// checks every pop against a sorted reference of the pending entries.
func TestEventQueueMatchesSortOracle(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := NewRand(seed)
		var q eventQueue
		var pending []queued
		var seq int64
		for step := 0; step < 2000; step++ {
			if len(pending) == 0 || rng.Intn(3) > 0 {
				seq++
				it := queued{at: Time(rng.Int64n(50)), seq: seq}
				q.push(it)
				pending = append(pending, it)
				continue
			}
			sort.Slice(pending, func(i, j int) bool { return pending[i].before(&pending[j]) })
			got, want := q.pop(), pending[0]
			pending = pending[1:]
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("seed %d step %d: popped (%d, %d), want (%d, %d)",
					seed, step, got.at, got.seq, want.at, want.seq)
			}
			if len(q) != len(pending) {
				t.Fatalf("seed %d step %d: queue holds %d, oracle %d", seed, step, len(q), len(pending))
			}
		}
	}
}

// TestSleepDispatchAllocatesNothing checks that once the queue's backing
// array has grown, a Sleep wake-up — push, pop, dispatch — allocates
// nothing.
func TestSleepDispatchAllocatesNothing(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	env.Go("sleeper", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	step := func() { env.RunUntil(env.Now().Add(time.Microsecond)) }
	step() // start the process and grow the queue
	before := env.KernelStats().EventsDispatched
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("Sleep dispatch allocates %.1f times per event, want 0", allocs)
	}
	if got := env.KernelStats().EventsDispatched - before; got != 101 {
		t.Errorf("dispatched %d events over 101 steps, want one per step", got)
	}
}

// BenchmarkSleepDispatch measures one kernel round trip: a process sleeps,
// the kernel pops its wake-up and hands control back.
func BenchmarkSleepDispatch(b *testing.B) {
	env := NewEnv()
	defer env.Close()
	env.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}
