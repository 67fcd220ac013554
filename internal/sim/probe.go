package sim

// Probe events are the kernel's "interesting event" stream for crash
// exploration: each point at which a driver acknowledges a client write,
// persists a sector, or crosses a write-back flight boundary emits one probe
// with a monotonically increasing index. The index is counted whether or not
// a hook is attached, so event N in a hooked run is the same instant as event
// N in an unhooked run — the property the crash explorer's bisection relies
// on.

// ProbeKind classifies an interesting event.
type ProbeKind uint8

const (
	// ProbeAck fires when a driver acknowledges a client write as durable.
	ProbeAck ProbeKind = iota + 1
	// ProbeMediaWrite fires after one sector's contents reach the platter.
	ProbeMediaWrite
	// ProbeWBStart fires when a write-back flight is submitted to a data
	// disk's scheduler.
	ProbeWBStart
	// ProbeWBEnd fires when a write-back flight completes and its log
	// records are credited.
	ProbeWBEnd
	// ProbeCommit fires when a WAL flush becomes durable.
	ProbeCommit
)

// String names the kind for reports.
func (k ProbeKind) String() string {
	switch k {
	case ProbeAck:
		return "ack"
	case ProbeMediaWrite:
		return "media-write"
	case ProbeWBStart:
		return "wb-start"
	case ProbeWBEnd:
		return "wb-end"
	case ProbeCommit:
		return "commit"
	default:
		return "unknown"
	}
}

// ProbeEvent describes one interesting event.
type ProbeEvent struct {
	// Index is the 0-based position of the event in the run's probe stream.
	Index int64
	Kind  ProbeKind
	At    Time
	// Dev names the emitting component (disk name, device, driver).
	Dev string
	// LBA and Count locate the I/O the event belongs to, where meaningful.
	LBA   int64
	Count int
}

// ProbeHook observes probe events. It runs on the emitting process, at the
// instant of the event; hooks must not touch the clock or the queue.
type ProbeHook func(ev ProbeEvent)

// SetProbeHook attaches (or with nil, detaches) the probe hook.
func (e *Env) SetProbeHook(h ProbeHook) { e.probeHook = h }

// ProbeCount returns the number of probe events emitted so far. It counts
// whether or not a hook is attached.
func (e *Env) ProbeCount() int64 { return e.probeSeq }

// EmitProbe records one interesting event from the running process. The
// probe index advances unconditionally; an attached hook sees the event.
func (e *Env) EmitProbe(kind ProbeKind, dev string, lba int64, count int) {
	idx := e.probeSeq
	e.probeSeq++
	if e.probeHook != nil {
		e.probeHook(ProbeEvent{Index: idx, Kind: kind, At: e.now, Dev: dev, LBA: lba, Count: count})
	}
}
