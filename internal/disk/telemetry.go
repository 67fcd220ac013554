package disk

import "tracklog/internal/telemetry"

// registerMetrics registers the drive's activity counters and virtual-time
// utilization on reg, labeled disk=name. All series read deterministic
// virtual-time state (command counts, mechanical time breakdowns), so any
// export of reg stays byte-comparable across same-seed runs. A nil
// registry registers nothing.
func (d *Disk) registerMetrics(reg *telemetry.Registry, name string) {
	if reg == nil {
		return
	}
	l := telemetry.Label{Key: "disk", Value: name}
	reg.CounterFunc(telemetry.Prefix+"disk_reads_total",
		"Read commands completed.",
		func() int64 { return d.stats.Reads }, l)
	reg.CounterFunc(telemetry.Prefix+"disk_writes_total",
		"Write commands completed.",
		func() int64 { return d.stats.Writes }, l)
	reg.CounterFunc(telemetry.Prefix+"disk_sectors_read_total",
		"Sectors transferred by reads.",
		func() int64 { return d.stats.SectorsRead }, l)
	reg.CounterFunc(telemetry.Prefix+"disk_sectors_written_total",
		"Sectors transferred by writes.",
		func() int64 { return d.stats.SectorsWritten }, l)
	reg.CounterFunc(telemetry.Prefix+"disk_errors_total",
		"Commands that completed with a fault.",
		func() int64 { return d.stats.Errors }, l)
	reg.GaugeFunc(telemetry.Prefix+"disk_busy_ms",
		"Virtual time spent servicing commands, in milliseconds.",
		func() float64 { return float64(d.stats.Busy) / 1e6 }, l)
	reg.GaugeFunc(telemetry.Prefix+"disk_seek_ms",
		"Virtual time spent seeking, in milliseconds.",
		func() float64 { return float64(d.stats.SeekTime) / 1e6 }, l)
	reg.GaugeFunc(telemetry.Prefix+"disk_rotate_ms",
		"Virtual time spent in rotational latency, in milliseconds.",
		func() float64 { return float64(d.stats.RotateTime) / 1e6 }, l)
	reg.GaugeFunc(telemetry.Prefix+"disk_transfer_ms",
		"Virtual time spent transferring sectors, in milliseconds.",
		func() float64 { return float64(d.stats.TransferTime) / 1e6 }, l)
	reg.GaugeFunc(telemetry.Prefix+"disk_utilization",
		"Fraction of elapsed virtual time the drive spent busy.",
		func() float64 {
			now := d.env.Now()
			if now <= 0 {
				return 0
			}
			return float64(d.stats.Busy) / float64(now)
		}, l)
}
