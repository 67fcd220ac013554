package crashexplore_test

import (
	"fmt"
	"testing"
	"time"

	"tracklog/internal/crashexplore"
	"tracklog/internal/crashexplore/stacks"
)

// BenchmarkExploreWindow sweeps the first 100 and the first 1,000 probes of
// the Trail stack, past the log wrap, and reports branches per host second.
// Branches seed from one forward pass, so the rate should not fall with the
// window the way it does when every branch replays its prefix.
func BenchmarkExploreWindow(b *testing.B) {
	for _, window := range []int64{100, 1000} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			st, err := stacks.TrailStack("", 0)
			if err != nil {
				b.Fatal(err)
			}
			opts := crashexplore.Options{Seed: 3, Window: window, Horizon: 1500 * time.Millisecond}
			branches := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := crashexplore.New(st, opts).Run()
				if err != nil {
					b.Fatal(err)
				}
				branches += rep.Explored
			}
			b.ReportMetric(float64(branches)/b.Elapsed().Seconds(), "branches/s")
		})
	}
}
