package trail

import (
	"tracklog/internal/metrics"
	"tracklog/internal/telemetry"
)

// registerMetrics registers the driver's own telemetry on reg: every Stats
// counter (via the metrics bridge, so names match the existing "trail.*"
// exposition) and the live queue/staging gauges. A nil registry registers
// nothing.
func (d *Driver) registerMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	metrics.RegisterCounters(reg, func() *metrics.Counters { return d.stats.Counters() })
	reg.GaugeFunc(telemetry.Prefix+"trail_log_queue_depth",
		"Client writes currently queued for the log disks.",
		func() float64 { return float64(d.LogQueueLen()) })
	reg.GaugeFunc(telemetry.Prefix+"trail_staged_bytes",
		"Memory currently pinned by the staging buffer.",
		func() float64 { return float64(d.StagedBytes()) })
	reg.GaugeFunc(telemetry.Prefix+"trail_outstanding_records",
		"Logged records not yet written back to a data disk.",
		func() float64 { return float64(d.OutstandingRecords()) })
	reg.GaugeFunc(telemetry.Prefix+"trail_avg_track_utilization",
		"Mean per-track space utilization over filled-and-left tracks.",
		func() float64 { return d.stats.AvgTrackUtilization() })
}
