package trail

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"tracklog/internal/disk"
	"tracklog/internal/fault"
	"tracklog/internal/geom"
	"tracklog/internal/qos"
	"tracklog/internal/sim"
	"tracklog/internal/snapshot"
)

// paperRig builds the paper's single-log configuration (ST41601N log disk,
// WD Caviar data disk), whose log holds thousands of records, so a staging
// backlog can grow far beyond what the small test geometry allows.
func paperRig(tb testing.TB, cfg Config) *rig {
	tb.Helper()
	env := sim.NewEnv()
	log := disk.New(env, disk.ST41601N())
	if err := Format(log); err != nil {
		tb.Fatal(err)
	}
	data := disk.New(env, disk.WDCaviar())
	drv, err := NewDriver(env, log, []*disk.Disk{data}, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return &rig{env: env, log: log, data: []*disk.Disk{data}, drv: drv}
}

// TestCountersTrackSparseBacklog drives a sparse back-to-back write load
// whose staging backlog grows into the thousands, held at a QoS high-water
// mark, while latent write errors on the data disk make some write-backs
// get abandoned. A daemon audits the incremental counters against their
// scans throughout, and a Snapshot/Restore round trip must carry them.
func TestCountersTrackSparseBacklog(t *testing.T) {
	const (
		writes  = 6000
		sectors = 2
		region  = 100000 // sectors written, and where the latent errors land
	)
	cfg := Default()
	cfg.QoS = &qos.Policy{HighWater: 2500 * sectors * geom.SectorSize, LowWater: 2400 * sectors * geom.SectorSize}
	r := paperRig(t, cfg)
	defer r.env.Close()
	fault.Attach(r.data[0], sim.NewRand(5), fault.Config{LatentWriteErrors: 40, MaxLBA: region})
	dev := r.drv.Dev(0)

	var audits, peakStaged int64
	r.env.GoDaemon("audit", func(p *sim.Proc) {
		for {
			p.Sleep(100 * time.Millisecond)
			if err := r.drv.CheckInvariants(); err != nil {
				t.Errorf("at %v: %v", p.Now(), err)
				return
			}
			audits++
			peakStaged = max(peakStaged, r.drv.StagedBytes())
		}
	})
	rng := sim.NewRand(11)
	r.env.Go("writer", func(p *sim.Proc) {
		for i := 0; i < writes; i++ {
			lba := rng.Int64n(region/sectors) * sectors
			if err := dev.Write(p, lba, sectors, fill(byte(i), sectors)); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
	})
	r.env.Run()
	if err := r.drv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := r.drv.Stats()
	t.Logf("staging peak %d KB, %d throttle stalls, %d abandoned write-backs, %d audits",
		peakStaged/1024, st.ThrottleStalls, st.AbandonedWritebacks, audits)
	if peakStaged < 2000*sectors*geom.SectorSize {
		t.Errorf("staging peaked at %d bytes; the backlog never built up", peakStaged)
	}
	if st.ThrottleStalls == 0 || st.AbandonedWritebacks == 0 {
		t.Fatalf("scenario lost its teeth: %d throttle stalls, %d abandoned write-backs",
			st.ThrottleStalls, st.AbandonedWritebacks)
	}
	if audits < 100 {
		t.Errorf("only %d audits ran", audits)
	}
	// Abandoned write-backs keep their buffers and records pinned.
	staged, live := r.drv.StagedBytes(), r.drv.OutstandingRecords()
	if staged == 0 || live == 0 {
		t.Fatalf("after the run: %d staged bytes, %d live records; want abandoned state pinned", staged, live)
	}

	snap := r.drv.Snapshot()
	fresh := paperRig(t, cfg)
	defer fresh.env.Close()
	if err := fresh.drv.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got, want := fresh.drv.StagedBytes(), staged; got != want {
		t.Errorf("restored StagedBytes = %d, want %d", got, want)
	}
	if got, want := fresh.drv.OutstandingRecords(), live; got != want {
		t.Errorf("restored OutstandingRecords = %d, want %d", got, want)
	}
	if err := fresh.drv.CheckInvariants(); err != nil {
		t.Errorf("restored driver: %v", err)
	}
	if !bytes.Equal(fresh.drv.Snapshot(), snap) {
		t.Error("restored driver snapshots differently")
	}
}

// TestCheckInvariantsCatchesCounterDrift corrupts each counter and expects
// both CheckInvariants and Snapshot to notice.
func TestCheckInvariantsCatchesCounterDrift(t *testing.T) {
	r := newRig(t, 1, Config{})
	defer r.env.Close()
	r.env.Go("w", func(p *sim.Proc) {
		if err := r.drv.Dev(0).Write(p, 64, 2, fill(1, 2)); err != nil {
			t.Error(err)
		}
	})
	r.env.Run()
	for _, tc := range []struct {
		name string
		bump func(d *Driver, n int)
	}{
		{"stagedBytes", func(d *Driver, n int) { d.stagedBytes += int64(n) }},
		{"liveRecords", func(d *Driver, n int) { d.liveRecords += n }},
	} {
		tc.bump(r.drv, 1)
		if err := r.drv.CheckInvariants(); err == nil {
			t.Errorf("%s drift not reported by CheckInvariants", tc.name)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s drift not caught by Snapshot", tc.name)
				}
			}()
			r.drv.Snapshot()
		}()
		tc.bump(r.drv, -1)
	}
	if err := r.drv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestOverlappingStagedReadsNewestWins stages [0,8) and then [4,8) while
// the first write-back is still on its way, and reads through both extents:
// the newer data must win on the staging path (one extent contains the
// read) and on the disk-plus-overlay path (none does), every trial, however
// the staging map happens to iterate.
func TestOverlappingStagedReadsNewestWins(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		r := newRig(t, 1, Config{})
		dev := r.drv.Dev(0)
		var contained, straddling []byte
		var stagedBoth bool
		r.env.Go("client", func(p *sim.Proc) {
			if err := dev.Write(p, 0, 8, fill(0xA0, 8)); err != nil {
				t.Error(err)
				return
			}
			if err := dev.Write(p, 4, 4, fill(0xB0, 4)); err != nil {
				t.Error(err)
				return
			}
			stagedBoth = len(r.drv.staging) == 2
			var err error
			if contained, err = dev.Read(p, 4, 2); err != nil {
				t.Error(err)
			}
			if straddling, err = dev.Read(p, 6, 4); err != nil {
				t.Error(err)
			}
		})
		r.env.Run()
		r.env.Close()
		if !stagedBoth {
			t.Fatal("write-back drained before the reads: the scenario needs both extents staged")
		}
		if want := fill(0xB0, 2); !bytes.Equal(contained, want) {
			t.Fatalf("trial %d: read (4,2) returned %#x..., want the newer 0xb0 data", trial, contained[0])
		}
		// Sectors 6-7 are staged twice (newest 0xb0); 8-9 come from the
		// never-written platter.
		want := append(fill(0xB0, 2), make([]byte, 2*geom.SectorSize)...)
		if !bytes.Equal(straddling, want) {
			t.Fatalf("trial %d: read (6,4) returned sector 6 = %#x, want the newer 0xb0 data", trial, straddling[0])
		}
	}
}

// TestRestoreDecodesV1Snapshot feeds Restore a version-1 stream — the
// format before staging stamps — and expects it to adopt the state.
func TestRestoreDecodesV1Snapshot(t *testing.T) {
	r := newRig(t, 1, Config{})
	defer r.env.Close()
	fault.Attach(r.data[0], sim.NewRand(1), fault.Config{LatentWriteErrors: 1, MaxLBA: 1})
	r.env.Go("w", func(p *sim.Proc) {
		if err := r.drv.Dev(0).Write(p, 0, 1, fill(7, 1)); err != nil {
			t.Error(err)
		}
	})
	r.env.Run()
	if len(r.drv.staging) != 1 || r.drv.Stats().AbandonedWritebacks != 1 {
		t.Fatalf("want one abandoned staged buffer, have %d staged, stats %+v", len(r.drv.staging), r.drv.Stats())
	}
	v2 := r.drv.Snapshot()
	v1 := downgradeToV1(t, v2)

	fresh := newRig(t, 1, Config{})
	defer fresh.env.Close()
	if err := fresh.drv.Restore(v1); err != nil {
		t.Fatal(err)
	}
	if err := fresh.drv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if fresh.drv.StagedBytes() != geom.SectorSize || fresh.drv.OutstandingRecords() != 1 {
		t.Errorf("restored %d staged bytes, %d live records", fresh.drv.StagedBytes(), fresh.drv.OutstandingRecords())
	}
	// The v1 stream had the one buffer as the whole staging order.
	if !bytes.Equal(fresh.drv.Snapshot(), v2) {
		t.Error("v1 restore re-snapshots differently from the v2 original")
	}
}

// downgradeToV1 rewrites a version-2 driver snapshot of a one-log, one-data
// rig with exactly one staged buffer and empty write-back queues into the
// version-1 layout: no staging sequence after the record sequence, no stamp
// after the buffer's span IDs.
func downgradeToV1(t *testing.T, v2 []byte) []byte {
	t.Helper()
	hdr := 4 + 4 + len(driverSnapKind) // magic, kind
	verAt := hdr
	seqEnd := hdr + 2 + 8 + 8 + 4 + 8 // version, nLogs, nData, epoch, seq
	if binary.LittleEndian.Uint16(v2[verAt:]) != driverSnapV2 ||
		binary.LittleEndian.Uint32(v2[len(v2)-4:]) != 0 {
		t.Fatal("downgradeToV1: unexpected layout")
	}
	stampAt := len(v2) - 4 - 8
	var v1 []byte
	v1 = append(v1, v2[:verAt]...)
	v1 = binary.LittleEndian.AppendUint16(v1, driverSnapV1)
	v1 = append(v1, v2[verAt+2:seqEnd]...)
	v1 = append(v1, v2[seqEnd+8:stampAt]...)
	v1 = append(v1, v2[len(v2)-4:]...)
	if _, ver, err := snapshot.NewReaderVersions(v1, driverSnapKind, driverSnapV1, driverSnapV1); err != nil || ver != driverSnapV1 {
		t.Fatalf("downgradeToV1: %v", err)
	}
	return v1
}

// BenchmarkStageBacklog measures the host cost of one client write through
// the driver at a steady staging backlog: sparse back-to-back writes, held
// at the backlog by a QoS high-water throttle against write-back progress.
// Per-write time must not grow with the backlog.
func BenchmarkStageBacklog(b *testing.B) {
	for _, backlog := range []int{1000, 8000} {
		b.Run(fmt.Sprintf("backlog=%d", backlog), func(b *testing.B) {
			const sectors = 2
			cfg := Default()
			high := backlog * sectors * geom.SectorSize
			cfg.QoS = &qos.Policy{HighWater: high, LowWater: high - 16*sectors*geom.SectorSize}
			r := paperRig(b, cfg)
			defer r.env.Close()
			dev := r.drv.Dev(0)
			slots := dev.Sectors() / sectors
			rng := sim.NewRand(3)
			buf := make([]byte, sectors*geom.SectorSize)
			write := func(p *sim.Proc) {
				if err := dev.Write(p, rng.Int64n(slots)*sectors, sectors, buf); err != nil {
					b.Error(err)
				}
			}
			done := false
			r.env.Go("writer", func(p *sim.Proc) {
				for r.drv.StagedBytes() < int64(high) {
					write(p)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					write(p)
				}
				b.StopTimer()
				done = true
			})
			// Stop once the writer is done rather than draining the backlog.
			for !done {
				r.env.RunUntil(r.env.Now().Add(time.Second))
			}
		})
	}
}
