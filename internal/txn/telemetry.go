package txn

import (
	"tracklog/internal/obs"
	"tracklog/internal/telemetry"
)

// SetScope registers the transaction manager's lifecycle and lock counters
// on sc's registry; the manager reports to no other observer. Call once per
// scope, before the run.
func (m *Manager) SetScope(sc obs.Scope) {
	reg := sc.Metrics
	if reg == nil {
		return
	}
	reg.CounterFunc(telemetry.Prefix+"txn_begun_total",
		"Transactions begun.",
		func() int64 { return m.stats.Begun })
	reg.CounterFunc(telemetry.Prefix+"txn_committed_total",
		"Transactions committed.",
		func() int64 { return m.stats.Committed })
	reg.CounterFunc(telemetry.Prefix+"txn_aborted_total",
		"Transactions aborted.",
		func() int64 { return m.stats.Aborted })
	reg.CounterFunc(telemetry.Prefix+"txn_deadlocks_total",
		"Aborts due to waits-for cycles.",
		func() int64 { return m.stats.Deadlocks })
	reg.CounterFunc(telemetry.Prefix+"txn_lock_waits_total",
		"Blocking lock requests.",
		func() int64 { return m.stats.LockWaits })
	reg.GaugeFunc(telemetry.Prefix+"txn_lock_wait_ms",
		"Total virtual time spent blocked on locks, in milliseconds.",
		func() float64 { return float64(m.stats.LockWaitTime) / 1e6 })
	reg.GaugeFunc(telemetry.Prefix+"txn_commit_io_ms",
		"Total virtual time spent waiting on the log at commit, in milliseconds.",
		func() float64 { return float64(m.stats.CommitIOTime) / 1e6 })
	reg.GaugeFunc(telemetry.Prefix+"txn_locked_keys",
		"Keys currently present in the lock table.",
		func() float64 { return float64(len(m.locks)) })
}
