// Package obs bundles a run's optional observers into one value, so every
// component attaches to all of them through a single SetScope call instead
// of one setter per observer.
//
// The zero Scope means everything is off: each field is an independently
// optional nil-is-disabled handle, and components store the handles they
// use at attach time, so a disabled observer costs one nil check on the hot
// path. Observation never changes virtual-time behaviour.
package obs

import (
	"tracklog/internal/span"
	"tracklog/internal/telemetry"
	"tracklog/internal/timeline"
	"tracklog/internal/trace"
)

// Scope is the set of observers a component reports into.
type Scope struct {
	// Trace receives scheduling, mechanical-phase and driver-decision
	// events (Chrome trace export and the prediction audit).
	Trace *trace.Tracer
	// Spans records each client request as a span tree that tiles its
	// latency.
	Spans *span.Recorder
	// Timeline aggregates per-layer state occupancy, levels and event
	// counts into virtual-time buckets.
	Timeline *timeline.Aggregator
	// Metrics is the unified telemetry registry; components register
	// their counter and gauge series on it at attach time.
	Metrics *telemetry.Registry
}
