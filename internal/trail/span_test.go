package trail

import (
	"bytes"
	"testing"
	"time"

	"tracklog/internal/fault"
	"tracklog/internal/obs"
	"tracklog/internal/sim"
	"tracklog/internal/span"
)

// checkSpanInvariant enforces the span layer's core guarantee on every
// recorded request: child spans are chronological, non-overlapping, stay
// inside the request interval, and their durations sum to exactly the
// end-to-end latency — no unattributed virtual time anywhere.
func checkSpanInvariant(t *testing.T, reqs []*span.Request) {
	t.Helper()
	for _, r := range reqs {
		if r.End < r.Start {
			t.Errorf("req %d (%s/%s): end %d before start %d", r.ID, r.Driver, r.Kind, r.End, r.Start)
			continue
		}
		cur := r.Start
		for i, s := range r.Spans {
			if s.Start < cur {
				t.Errorf("req %d (%s/%s): span %d (%v) starts at %d, before frontier %d (overlap or disorder)",
					r.ID, r.Driver, r.Kind, i, s.Phase, s.Start, cur)
			}
			if s.End < s.Start {
				t.Errorf("req %d: span %d (%v) has negative duration", r.ID, i, s.Phase)
			}
			cur = s.End
		}
		if cur > r.End {
			t.Errorf("req %d (%s/%s): spans run to %d, past request end %d", r.ID, r.Driver, r.Kind, cur, r.End)
		}
		if got, want := r.Attributed(), r.Latency(); got != want {
			t.Errorf("req %d (%s/%s, lba %d): attributed %dns != latency %dns (%dns unaccounted)",
				r.ID, r.Driver, r.Kind, r.LBA, got, want, want-got)
		}
	}
}

// spanWorkload drives a rig hard enough to exercise every attribution path:
// batched log writes, track switches (low utilization threshold), staging
// hits, disk reads, and write-back traffic.
func spanWorkload(r *rig) {
	dev := r.drv.Dev(0)
	r.env.Go("writer", func(p *sim.Proc) {
		for i := 0; i < 120; i++ {
			dev.Write(p, int64(i%40)*8, 2, fill(byte(i), 2)) //nolint:errcheck // fault runs check errors separately
			if i%10 == 9 {
				p.Sleep(2 * time.Millisecond)
			}
		}
	})
	r.env.Go("reader", func(p *sim.Proc) {
		p.Sleep(5 * time.Millisecond)
		for i := 0; i < 60; i++ {
			dev.Read(p, int64(i%50)*8, 2) //nolint:errcheck
			p.Sleep(500 * time.Microsecond)
		}
	})
}

func TestSpanAttributionInvariant(t *testing.T) {
	r := newRig(t, 1, Config{UtilizationThreshold: 0.10})
	defer r.env.Close()
	rec := span.NewRecorder(0)
	r.drv.SetScope(obs.Scope{Spans: rec})
	spanWorkload(r)
	r.env.Run()

	reqs := rec.Requests()
	if len(reqs) < 100 {
		t.Fatalf("only %d requests recorded", len(reqs))
	}
	checkSpanInvariant(t, reqs)

	// Every path must appear: client writes, reads (staging and disk),
	// write-backs with flow links, and at least one track-switch stall
	// carved out of a client write's queue time.
	var kinds [4]int
	var flows, switches, staged int
	for _, rq := range reqs {
		kinds[rq.Kind]++
		flows += len(rq.Flows)
		for _, s := range rq.Spans {
			switch s.Phase {
			case span.PTrackSwitch:
				switches++
			case span.PStaging:
				staged++
			}
		}
	}
	if kinds[span.KWrite] < 100 || kinds[span.KRead] < 50 || kinds[span.KWriteback] == 0 {
		t.Errorf("kind coverage writes=%d reads=%d writebacks=%d",
			kinds[span.KWrite], kinds[span.KRead], kinds[span.KWriteback])
	}
	if flows == 0 {
		t.Error("no write-back flow links recorded")
	}
	if r.drv.Stats().Repositions > 0 && switches == 0 {
		t.Error("track switches happened but none attributed to a client write")
	}
	if staged == 0 {
		t.Error("no staging-hit reads recorded")
	}

	// The budget analyzer must see the same invariant: zero unattributed
	// time in every group.
	for _, g := range span.Analyze(reqs).Groups {
		if g.Unattributed != 0 {
			t.Errorf("group %s: unattributed %v", g.Key, g.Unattributed)
		}
	}
}

// Under injected transient faults the invariant must still hold: failed
// attempts become retry spans that tile with the queue time around them.
func TestSpanAttributionInvariantUnderFaults(t *testing.T) {
	r := newRig(t, 1, Config{UtilizationThreshold: 0.10})
	defer r.env.Close()
	fault.Attach(r.log, sim.NewRand(42), fault.Config{Timeouts: 3, TimeoutWindow: 40})
	fault.Attach(r.data[0], sim.NewRand(17), fault.Config{Timeouts: 2, TimeoutWindow: 40})
	rec := span.NewRecorder(0)
	r.drv.SetScope(obs.Scope{Spans: rec})
	spanWorkload(r)
	r.env.Run()

	reqs := rec.Requests()
	checkSpanInvariant(t, reqs)
	retried := 0
	for _, rq := range reqs {
		for _, s := range rq.Spans {
			if s.Phase == span.PRetry {
				retried++
			}
		}
	}
	if retried == 0 {
		t.Error("injected faults but no retry spans recorded")
	}
}

// Two identical runs must produce byte-identical span dumps — the recorder,
// its IDs, and both export formats are deterministic functions of the seed.
func TestSpanDumpsDeterministic(t *testing.T) {
	run := func() (jsonDump, chromeDump []byte) {
		r := newRig(t, 1, Config{UtilizationThreshold: 0.10})
		defer r.env.Close()
		rec := span.NewRecorder(0)
		r.drv.SetScope(obs.Scope{Spans: rec})
		spanWorkload(r)
		r.env.Run()
		var j, c bytes.Buffer
		if err := rec.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := rec.WriteChrome(&c); err != nil {
			t.Fatal(err)
		}
		return j.Bytes(), c.Bytes()
	}
	j1, c1 := run()
	j2, c2 := run()
	if !bytes.Equal(j1, j2) {
		t.Error("span JSON differs between identical runs")
	}
	if !bytes.Equal(c1, c2) {
		t.Error("span chrome export differs between identical runs")
	}
	if len(j1) == 0 || len(c1) == 0 {
		t.Error("empty span dumps")
	}
}

// Recovery records one span tree whose locate/rebuild/write-back children
// tile the recovery end to end.
func TestRecoverySpans(t *testing.T) {
	r := crashAfterWrites(t, 20)
	rec := span.NewRecorder(0)
	recoverRig(t, r, RecoverOptions{Spans: rec})

	reqs := rec.Requests()
	if len(reqs) != 1 {
		t.Fatalf("recovery recorded %d requests, want 1", len(reqs))
	}
	checkSpanInvariant(t, reqs)
	rq := reqs[0]
	if rq.Kind != span.KRecover {
		t.Errorf("kind = %v", rq.Kind)
	}
	var phases [3]bool
	for _, s := range rq.Spans {
		switch s.Phase {
		case span.PLocate:
			phases[0] = true
		case span.PRebuild:
			phases[1] = true
		case span.PWriteBack:
			phases[2] = true
		default:
			t.Errorf("unexpected phase %v in recovery tree", s.Phase)
		}
	}
	if !phases[0] || !phases[1] || !phases[2] {
		t.Errorf("recovery phases present: locate=%v rebuild=%v writeback=%v", phases[0], phases[1], phases[2])
	}
}
