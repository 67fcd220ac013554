package crashexplore_test

import (
	"runtime/metrics"
	"testing"
	"time"

	"tracklog/internal/crashexplore"
	"tracklog/internal/crashexplore/stacks"
)

// TestTrailRecoveryPastWrapTerminates replays the branch that once sent
// Trail recovery into an endless loop: seed 1, cut at probe 1030, past the
// first wrap of the small log disk. A record's prev_sect there names reused
// log space holding a record that is not older, and the backward chain walk
// cycled through cached tracks without advancing virtual time, allocating
// until the host ran out of memory. The walk now stops at the first
// predecessor that is not strictly older, so the branch completes. It still
// loses acknowledged writes (a known defect of recovery past the log wrap);
// the test pins that outcome so a change in it is noticed.
func TestTrailRecoveryPastWrapTerminates(t *testing.T) {
	// A runaway recovery never yields, so no virtual-time budget can stop
	// it; a heap watchdog turns it into a test failure instead.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				metrics.Read(sample)
				if sample[0].Value.Uint64() > 512<<20 {
					panic("crashexplore: Trail recovery ran away (heap past 512 MB)")
				}
			}
		}
	}()

	st, err := stacks.TrailStack("", 0)
	if err != nil {
		t.Fatal(err)
	}
	x := crashexplore.New(st, crashexplore.Options{
		Seed:    1,
		Skip:    1030,
		Window:  1,
		Horizon: 1500 * time.Millisecond,
	})
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Branches) != 1 {
		t.Fatalf("explored %d branches, want 1", len(rep.Branches))
	}
	b := rep.Branches[0]
	if b.Event.Index != 1030 {
		t.Fatalf("branch cut at probe %d, want 1030", b.Event.Index)
	}
	if b.Err != "" {
		t.Fatalf("branch error: %s", b.Err)
	}
	if b.Lost != 8 || b.Torn != 0 {
		t.Errorf("branch lost %d and tore %d slots, want 8 lost and 0 torn", b.Lost, b.Torn)
	}
}
