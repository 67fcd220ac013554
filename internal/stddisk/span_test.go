package stddisk

import (
	"testing"
	"time"

	"tracklog/internal/fault"
	"tracklog/internal/geom"
	"tracklog/internal/obs"
	"tracklog/internal/sim"
	"tracklog/internal/span"
)

// The baseline device's span trees must tile exactly: queue wait, retries,
// and mechanical phases sum to each command's end-to-end latency.
func TestDeviceSpanInvariant(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	dev, d := newDev(env)
	fault.Attach(d, sim.NewRand(9), fault.Config{Timeouts: 2, TimeoutWindow: 30})
	rec := span.NewRecorder(0)
	dev.SetScope(obs.Scope{Spans: rec}, "disk0")

	for w := 0; w < 4; w++ {
		w := w
		env.Go("writer", func(p *sim.Proc) {
			for i := 0; i < 10; i++ {
				dev.Write(p, int64(w*20+i%20)*64, 2, make([]byte, 2*geom.SectorSize)) //nolint:errcheck
			}
		})
	}
	env.Go("reader", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		for i := 0; i < 20; i++ {
			dev.Read(p, int64(i)*32, 4) //nolint:errcheck
			p.Sleep(300 * time.Microsecond)
		}
	})
	env.Run()

	reqs := rec.Requests()
	if len(reqs) != 60 {
		t.Fatalf("recorded %d requests, want 60", len(reqs))
	}
	retried := 0
	for _, r := range reqs {
		if got, want := r.Attributed(), r.Latency(); got != want {
			t.Errorf("req %d (%s, lba %d): attributed %dns != latency %dns", r.ID, r.Kind, r.LBA, got, want)
		}
		cur := r.Start
		for i, s := range r.Spans {
			if s.Start < cur {
				t.Errorf("req %d: span %d (%v) overlaps previous", r.ID, i, s.Phase)
			}
			cur = s.End
			if s.Phase == span.PRetry {
				retried++
			}
		}
	}
	if retried == 0 {
		t.Error("injected timeouts but no retry spans recorded")
	}
	// Queue snapshots must flow through: with two competing clients at
	// least one request saw a non-empty queue.
	sawDepth := false
	for _, r := range reqs {
		for _, s := range r.Spans {
			if s.Phase == span.PQueue && s.A > 0 {
				sawDepth = true
			}
		}
	}
	if !sawDepth {
		t.Error("no request recorded a non-zero queue depth at submit")
	}
}
