package crashexplore

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"tracklog/internal/disk"
	"tracklog/internal/sim"
	"tracklog/internal/snapshot"
)

// forward is the record of the single forward pass: the seeded world run
// once, from the end of Build to the last candidate probe, logging what a
// power cut would leave behind. It doubles as the shadow image of that
// state, advanced in probe order as the branches are explored: each branch
// seeds a freshly built stack's drives from the image instead of running a
// world of its own.
type forward struct {
	// writes logs every sector written, in order; seed consumes it.
	writes []sectorWrite
	// marks holds the state besides media at each candidate probe, in
	// candidate order; neighbours with equal state share one mark. It stops
	// short of the candidates when the forward pass's probe stream
	// disagreed with the census, and err says why.
	marks []*mark
	err   string
	// media is the shadow image: per drive, every sector written since
	// Build up to the last seeded probe. Branch drives attach these
	// buffers and copy before overwriting, so one copy serves every branch.
	media []map[int64][]byte
}

// sectorWrite is one sector landing on a drive's media in the forward pass.
type sectorWrite struct {
	seq   int64 // probes emitted before the write
	drive int
	lba   int64
	data  []byte // immutable: the drive was copy-on-write
}

// mark is the state at a candidate probe besides the media.
type mark struct {
	acked  []int        // acknowledged versions, before the probe's writer updates them
	drives []driveState // per drive
}

// driveState is what a drive keeps across a power cut besides its media
// (see disk.Disk.Reattach). Params are not carried: a branch's Build sets
// them afresh, and no explored stack changes them mid-run.
type driveState struct {
	cyl, head int
	inj       []byte // the injector's Snapshot; nil without an injector
}

func (s driveState) equal(o driveState) bool {
	return s.cyl == o.cyl && s.head == o.head && bytes.Equal(s.inj, o.inj)
}

// drives returns the disk drives built on env, in build order.
func drives(env *sim.Env) []*disk.Disk {
	var out []*disk.Disk
	for _, dev := range env.Devices() {
		if d, ok := dev.(*disk.Disk); ok {
			out = append(out, d)
		}
	}
	return out
}

// states reads every drive's state besides its media. Their injectors have
// been checked to be snapshot.Snapshotters.
func states(ds []*disk.Disk) []driveState {
	out := make([]driveState, len(ds))
	for i, d := range ds {
		s := &out[i]
		s.cyl, s.head = d.Arm()
		if inj := d.Injector(); inj != nil {
			s.inj = inj.(snapshot.Snapshotter).Snapshot()
		}
	}
	return out
}

// runForward makes the forward pass over the candidate events.
func (x *Explorer) runForward() (*forward, error) {
	env := sim.NewEnv()
	defer env.Close()
	write, err := x.stack.Build(env)
	if err != nil {
		return nil, fmt.Errorf("crashexplore: forward pass build: %w", err)
	}
	last := x.events[len(x.events)-1]
	f := &forward{}
	ds := drives(env)
	for i, d := range ds {
		if _, ok := d.Injector().(snapshot.Snapshotter); d.Injector() != nil && !ok {
			return nil, fmt.Errorf("crashexplore: drive %s: injector %T has no snapshot to carry across the cut",
				d.Params().Name, d.Injector())
		}
		f.media = append(f.media, make(map[int64][]byte))
		d.SetWriteHook(func(lba int64, sector []byte) {
			if seq := env.ProbeCount(); seq <= last.Index {
				f.writes = append(f.writes, sectorWrite{seq: seq, drive: i, lba: lba, data: sector})
			}
		})
	}
	acked, _ := launchWorkload(env, x.opts.Seed, x.stack.Slots, write)
	prev := &mark{acked: slices.Clone(acked), drives: states(ds)}

	env.SetProbeHook(func(ev sim.ProbeEvent) {
		n := len(f.marks)
		if f.err != "" || n == len(x.events) || ev.Index != x.events[n].Index {
			return
		}
		if got, want := eventInfo(ev), x.events[n]; got != want {
			f.err = fmt.Sprintf("forward pass probe %d is %+v, census saw %+v", want.Index, got, want)
			return
		}
		if s := states(ds); !slices.Equal(acked, prev.acked) || !slices.EqualFunc(s, prev.drives, driveState.equal) {
			prev = &mark{acked: slices.Clone(acked), drives: s}
		}
		f.marks = append(f.marks, prev)
	})
	env.RunUntil(sim.Time(last.At))
	if n := len(f.marks); n < len(x.events) && f.err == "" {
		f.err = fmt.Sprintf("forward pass ended before probe %d", x.events[n].Index)
	}
	return f, nil
}

// eventInfo renders a probe event the way the census records it.
func eventInfo(ev sim.ProbeEvent) EventInfo {
	return EventInfo{
		Index: ev.Index, Kind: ev.Kind.String(), At: int64(ev.At),
		Dev: ev.Dev, LBA: ev.LBA, Count: ev.Count,
	}
}

// seed advances the shadow image to candidate pos, at probe index, loads
// it into the drives a branch's Build put on env, and returns the
// acknowledged versions at that probe. Calls must not go back in probe
// order.
func (f *forward) seed(env *sim.Env, pos int, index int64) ([]int, error) {
	if pos >= len(f.marks) {
		return nil, errors.New(f.err)
	}
	n := 0
	for ; n < len(f.writes) && f.writes[n].seq <= index; n++ {
		w := &f.writes[n]
		f.media[w.drive][w.lba] = w.data
		*w = sectorWrite{} // the image holds it now
	}
	if f.writes = f.writes[n:]; len(f.writes) < cap(f.writes)/2 {
		f.writes = slices.Clone(f.writes) // let the consumed prefix go
	}
	m := f.marks[pos]
	f.marks[pos] = nil
	ds := drives(env)
	if len(ds) != len(f.media) {
		return nil, fmt.Errorf("seed: stack built %d drives, the forward pass %d", len(ds), len(f.media))
	}
	for i, d := range ds {
		for lba, sector := range f.media[i] {
			d.AttachSector(lba, sector)
		}
		s := &m.drives[i]
		d.SetArm(s.cyl, s.head)
		if s.inj == nil {
			continue
		}
		inj, ok := d.Injector().(snapshot.Snapshotter)
		if !ok {
			return nil, fmt.Errorf("seed: drive %s: built without the forward pass's injector", d.Params().Name)
		}
		if err := inj.Restore(s.inj); err != nil {
			return nil, fmt.Errorf("seed: drive %s: injector: %w", d.Params().Name, err)
		}
	}
	return m.acked, nil
}
