package raid

import (
	"testing"

	"tracklog/internal/geom"
	"tracklog/internal/obs"
	"tracklog/internal/sim"
	"tracklog/internal/span"
)

// Array span trees must obey the exact-attribution invariant: stripe-lock
// waits plus member sub-operations tile each read's and write's latency.
func TestArraySpanInvariant(t *testing.T) {
	env, a, _ := newArray(t, 4, 8)
	defer env.Close()
	rec := span.NewRecorder(0)
	a.SetScope(obs.Scope{Spans: rec}, "md0")
	run(env, func(p *sim.Proc) {
		data := make([]byte, 24*geom.SectorSize)
		for i := range data {
			data[i] = byte(i)
		}
		if err := a.Write(p, 0, 24, data); err != nil { // full stripe (3 data chunks)
			t.Errorf("full-stripe write: %v", err)
		}
		if err := a.Write(p, 30, 4, data[:4*geom.SectorSize]); err != nil { // small write
			t.Errorf("small write: %v", err)
		}
		if _, err := a.Read(p, 4, 16); err != nil {
			t.Errorf("read: %v", err)
		}
	})

	reqs := rec.Requests()
	if len(reqs) != 3 {
		t.Fatalf("recorded %d requests, want 3", len(reqs))
	}
	var subReads, subWrites int
	for _, r := range reqs {
		if got, want := r.Attributed(), r.Latency(); got != want {
			t.Errorf("req %d (%s): attributed %dns != latency %dns", r.ID, r.Kind, got, want)
		}
		cur := r.Start
		for i, s := range r.Spans {
			if s.Start < cur {
				t.Errorf("req %d: span %d (%v) overlaps previous", r.ID, i, s.Phase)
			}
			cur = s.End
			switch s.Phase {
			case span.PSubRead:
				subReads++
			case span.PSubWrite:
				subWrites++
			}
		}
	}
	// Small write = 2 reads + 2 writes; full stripe = 4 writes; read = 1+.
	if subReads < 3 || subWrites < 6 {
		t.Errorf("sub-operations: %d reads, %d writes", subReads, subWrites)
	}
}
