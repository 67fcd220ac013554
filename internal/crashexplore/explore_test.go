package crashexplore_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"tracklog/internal/crashexplore"
	"tracklog/internal/disk"
	"tracklog/internal/sim"
)

// memStack is a synthetic two-slot stack whose platter is one small drive,
// written with no timing cost: the drive survives the power cut, everything
// else dies. Each write emits a media-write probe just before persisting and
// an ack probe just after, so the probe schedule is exactly known — which
// makes the expected minimal failing index of a broken recovery computable
// by hand.
func memStack(broken bool) crashexplore.Stack {
	var platter *disk.Disk
	return crashexplore.Stack{
		Slots: 2,
		Build: func(env *sim.Env) (crashexplore.WriteFunc, error) {
			platter = disk.New(env, memberParams()) // fresh world, blank platter
			return func(p *sim.Proc, slot, version int) error {
				p.Sleep(200 * time.Microsecond)
				env.EmitProbe(sim.ProbeMediaWrite, "mem", int64(slot), 1)
				platter.MediaWrite(int64(slot), crashexplore.Payload(slot, version, 1))
				env.EmitProbe(sim.ProbeAck, "mem", int64(slot), 1)
				return nil
			}, nil
		},
		Recover: func(env2 *sim.Env) (crashexplore.ReadFunc, error) {
			return func(p *sim.Proc, slot int) (int, bool) {
				v, ok := crashexplore.ParseVersion(platter.MediaRead(int64(slot), 1), slot, 1)
				if broken && v > 0 {
					return v - 1, ok // recovery "loses" the newest version
				}
				return v, ok
			}, nil
		},
	}
}

func memOptions() crashexplore.Options {
	return crashexplore.Options{
		Seed:    7,
		Window:  12,
		Horizon: 40 * time.Millisecond,
	}
}

// TestExploreMemStackHolds explores every branch of the healthy synthetic
// stack: the durability contract must hold at every cut point.
func TestExploreMemStackHolds(t *testing.T) {
	rep, err := crashexplore.New(memStack(false), memOptions()).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Explored != 12 {
		t.Fatalf("explored %d branches, want 12", rep.Explored)
	}
	if rep.Failed() {
		t.Fatalf("healthy stack failed exploration: %+v", rep)
	}
	if rep.FirstFailing != -1 {
		t.Fatalf("FirstFailing = %d, want -1", rep.FirstFailing)
	}
}

// TestBrokenRecoveryExactIndex plants a recovery bug (the newest persisted
// version of every slot is dropped) and checks the explorer pins the minimal
// failing event: probe 0 is slot 0's media write (nothing persisted yet,
// cut survives), probe 1 its ack (persisted but not yet acknowledged, cut
// survives), and probe 2 — slot 1's media write, by which time slot 0's
// write has been acknowledged — is the first cut the broken recovery loses.
func TestBrokenRecoveryExactIndex(t *testing.T) {
	rep, err := crashexplore.New(memStack(true), memOptions()).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatal("broken recovery passed exploration")
	}
	if rep.FirstFailing != 2 {
		t.Fatalf("FirstFailing = %d, want exactly 2", rep.FirstFailing)
	}
	if rep.LostBranches == 0 {
		t.Fatal("no lost branches recorded")
	}
	// The failing branch names the lost slot and versions.
	var b *crashexplore.Branch
	for i := range rep.Branches {
		if rep.Branches[i].Event.Index == 2 {
			b = &rep.Branches[i]
		}
	}
	if b == nil || len(b.Failures) == 0 {
		t.Fatalf("branch at index 2 has no failure detail: %+v", b)
	}
	f := b.Failures[0]
	if f.Slot != 0 || f.Acked != 1 || f.Found != 0 || f.Torn {
		t.Fatalf("failure detail = %+v, want slot 0 acked 1 found 0", f)
	}
}

// TestExploreDeterminism runs the same exploration twice and requires
// byte-identical reports.
func TestExploreDeterminism(t *testing.T) {
	render := func() []byte {
		rep, err := crashexplore.New(memStack(false), memOptions()).Run()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("two identical explorations rendered differently:\n%s\n---\n%s", a, b)
	}
}

// TestExploreSnapshotResume pauses an exploration mid-way, snapshots it,
// resumes from the snapshot on a fresh explorer, and requires the final
// report to be byte-identical to a straight-through exploration.
func TestExploreSnapshotResume(t *testing.T) {
	straight := func() []byte {
		rep, err := crashexplore.New(memStack(false), memOptions()).Run()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()

	x := crashexplore.New(memStack(false), memOptions())
	for i := 0; i < 5; i++ {
		if _, more, err := x.Step(); err != nil || !more {
			t.Fatalf("step %d: more=%v err=%v", i, more, err)
		}
	}
	snap := x.Snapshot()

	y, err := crashexplore.NewFromSnapshot(memStack(false), snap)
	if err != nil {
		t.Fatal(err)
	}
	if y.Remaining() != x.Remaining() {
		t.Fatalf("resumed explorer has %d branches remaining, want %d", y.Remaining(), x.Remaining())
	}
	rep, err := y.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(straight, buf.Bytes()) {
		t.Fatalf("resumed report differs from straight-through report:\n%s\n---\n%s", straight, buf.Bytes())
	}
}

// TestExplorerSnapshotRejectsGarbage checks the resume path surfaces codec
// sentinels instead of panicking.
func TestExplorerSnapshotRejectsGarbage(t *testing.T) {
	st := memStack(false)
	if _, err := crashexplore.NewFromSnapshot(st, []byte("not a snapshot")); err == nil {
		t.Fatal("garbage accepted")
	}
	x := crashexplore.New(st, memOptions())
	if err := x.Plan(); err != nil {
		t.Fatal(err)
	}
	snap := x.Snapshot()
	if _, err := crashexplore.NewFromSnapshot(st, snap[:len(snap)-3]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

// TestParseKind round-trips every probe-kind name.
func TestParseKind(t *testing.T) {
	for k := sim.ProbeAck; k <= sim.ProbeCommit; k++ {
		got, err := crashexplore.ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := crashexplore.ParseKind("bogus"); err == nil {
		t.Fatal("bogus kind accepted")
	}
}

// TestKindsFilter restricts branching to acks only.
func TestKindsFilter(t *testing.T) {
	opts := memOptions()
	opts.Kinds = []sim.ProbeKind{sim.ProbeAck}
	rep, err := crashexplore.New(memStack(false), opts).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Explored == 0 {
		t.Fatal("no branches explored")
	}
	for _, b := range rep.Branches {
		if b.Event.Kind != "ack" {
			t.Fatalf("branch on kind %q with ack-only filter", b.Event.Kind)
		}
	}
}

// TestForwardPassDisagreementFailsBranches builds a stack whose probe
// stream depends on how often it was built, so the forward pass (the second
// Build) disagrees with the census (the first): by the device it names, or
// by running late and never reaching the census's probes within the
// census's time. Every branch from the disagreement on must fail with an
// error instead of seeding from a stream it cannot trust.
func TestForwardPassDisagreementFailsBranches(t *testing.T) {
	for _, c := range []struct {
		name  string
		delay time.Duration // extra think time in the forward pass
		dev   string        // device the forward pass names
		want  string
	}{
		{"device", 0, "other", "forward pass probe 0 is"},
		{"late", 30 * time.Millisecond, "mem", "forward pass ended before probe 0"},
	} {
		t.Run(c.name, func(t *testing.T) {
			builds := 0
			st := memStack(false)
			st.Build = func(env *sim.Env) (crashexplore.WriteFunc, error) {
				builds++
				delay, dev := time.Duration(0), "mem"
				if builds == 2 {
					delay, dev = c.delay, c.dev
				}
				return func(p *sim.Proc, slot, version int) error {
					p.Sleep(200*time.Microsecond + delay)
					env.EmitProbe(sim.ProbeAck, dev, int64(slot), 1)
					return nil
				}, nil
			}
			rep, err := crashexplore.New(st, memOptions()).Run()
			if err != nil {
				t.Fatal(err)
			}
			if rep.ErrorBranches != rep.Explored || rep.Explored == 0 || rep.FirstFailing != 0 {
				t.Fatalf("%d of %d branches failed with an error, first failing %d; want all, from 0",
					rep.ErrorBranches, rep.Explored, rep.FirstFailing)
			}
			if got := rep.Branches[0].Err; !strings.HasPrefix(got, c.want) {
				t.Fatalf("branch error %q, want prefix %q", got, c.want)
			}
		})
	}
}
