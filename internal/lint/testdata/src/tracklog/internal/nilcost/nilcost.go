// Package nilcost is the nilguard fixture for instrument-argument cost: a
// disabled (nil) handle must cost nothing, so a handle call whose arguments
// call into a loop has to sit behind an enabled-guard.
package nilcost

import (
	"tracklog/internal/telemetry"
	"tracklog/internal/timeline"
)

// buffer mimics a driver with a staging map and a level meter.
type buffer struct {
	staged  map[int64]int
	bytes   int64
	tlLevel *timeline.Meter
	depth   *telemetry.Gauge
}

// scanBytes walks the whole map: O(n).
func (b *buffer) scanBytes() int64 {
	var n int64
	for _, c := range b.staged {
		n += int64(c)
	}
	return n
}

// level reaches the loop through a helper.
func (b *buffer) level() float64 { return float64(b.scanBytes()) }

// cheap is O(1).
func (b *buffer) cheap() float64 { return float64(b.bytes) }

// stageUnguarded pays the scan on every call, enabled or not: flagged.
func (b *buffer) stageUnguarded(at int64) {
	b.tlLevel.Set(float64(b.scanBytes()), at) // want `argument of b\.tlLevel\.Set calls b\.scanBytes, which reaches a loop \(loop at nilcost\.go:\d+\)`
}

// stageViaHelper reaches the loop one call deeper: flagged with the chain.
func (b *buffer) stageViaHelper() {
	b.depth.Set(b.level()) // want `argument of b\.depth\.Set calls b\.level, which reaches a loop \(nilcost\.\(buffer\)\.scanBytes -> loop at nilcost\.go:\d+\)`
}

// stageGuarded skips the scan while the meter is disabled.
func (b *buffer) stageGuarded(at int64) {
	if b.tlLevel != nil {
		b.tlLevel.Set(float64(b.scanBytes()), at)
	}
}

// stageEarlyReturn guards by returning first.
func (b *buffer) stageEarlyReturn() {
	if b.depth == nil {
		return
	}
	b.depth.Set(b.level())
}

// stageCheap evaluates an O(1) argument: fine unguarded.
func (b *buffer) stageCheap(at int64) {
	b.tlLevel.Set(b.cheap(), at)
}

// register hands over a callback, evaluated only at export time: fine.
func (b *buffer) register(reg *telemetry.Registry) {
	reg.GaugeFunc("staged", "Staged bytes.", func() float64 { return b.level() })
}

// wrongGuard tests a different handle: still flagged.
func (b *buffer) wrongGuard(at int64) {
	if b.depth != nil {
		b.tlLevel.Set(b.level(), at) // want `argument of b\.tlLevel\.Set calls b\.level`
	}
}
