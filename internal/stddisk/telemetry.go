package stddisk

import "tracklog/internal/telemetry"

// registerMetrics registers the device's retry/failure counters on reg,
// labeled disk=name. A nil registry registers nothing.
func (d *Device) registerMetrics(reg *telemetry.Registry, name string) {
	if reg == nil {
		return
	}
	l := telemetry.Label{Key: "disk", Value: name}
	reg.CounterFunc(telemetry.Prefix+"stddisk_retries_total",
		"Transient-failure command re-issues.",
		func() int64 { return d.stats.Retries }, l)
	reg.CounterFunc(telemetry.Prefix+"stddisk_failures_total",
		"Commands surfaced to the client as errors.",
		func() int64 { return d.stats.Failures }, l)
}
