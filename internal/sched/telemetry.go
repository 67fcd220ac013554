package sched

import "tracklog/internal/telemetry"

// registerMetrics registers the queue's scheduling counters on reg,
// labeled disk=name. A nil registry registers nothing.
func (q *Queue) registerMetrics(reg *telemetry.Registry, name string) {
	if reg == nil {
		return
	}
	l := telemetry.Label{Key: "disk", Value: name}
	reg.CounterFunc(telemetry.Prefix+"sched_submitted_total",
		"Requests submitted to the scheduler.",
		func() int64 { return q.stats.Submitted }, l)
	reg.CounterFunc(telemetry.Prefix+"sched_completed_total",
		"Requests completed by the scheduler.",
		func() int64 { return q.stats.Completed }, l)
	reg.CounterFunc(telemetry.Prefix+"sched_errors_total",
		"Requests completed with a fault.",
		func() int64 { return q.stats.Errors }, l)
	reg.CounterFunc(telemetry.Prefix+"sched_shed_total",
		"Requests shed because the bounded queue was full.",
		func() int64 { return q.stats.Shed }, l)
	reg.CounterFunc(telemetry.Prefix+"sched_expired_total",
		"Requests expired past their deadline before reaching the disk.",
		func() int64 { return q.stats.Expired }, l)
	reg.GaugeFunc(telemetry.Prefix+"sched_queue_wait_ms",
		"Total virtual time requests spent waiting in queue, in milliseconds.",
		func() float64 { return float64(q.stats.QueueWait) / 1e6 }, l)
	reg.GaugeFunc(telemetry.Prefix+"sched_queue_depth",
		"Requests currently queued.",
		func() float64 { return float64(q.Depth()) }, l)
	reg.GaugeFunc(telemetry.Prefix+"sched_queue_peak",
		"Queued-request high-water mark.",
		func() float64 { return float64(q.stats.MaxDepth) }, l)
}
