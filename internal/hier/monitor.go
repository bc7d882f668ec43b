package hier

// The counter monitor is the defense pipeline's data source: simulated
// per-core performance counters (accesses served per level) aggregated into
// fixed-length observation windows, the Flush+Flush detector model (Gruss
// et al.) applied to this simulator. Windows are indexed by simulated time
// (window i covers cycles [i*W, (i+1)*W)), not by arrival order: the
// scheduler interleaves agents, so per-access timestamps are not monotonic
// across cores, and bucketing by time makes the aggregate independent of
// interleaving details — the property that keeps counter traces
// byte-identical across worker counts and reuse modes.
//
// A Monitor is external instrumentation, not simulation state: it is
// attached to a Hierarchy after construction (and after any warmup, so
// warm-snapshot runs and cold runs observe the same traffic), feeds
// only on served accesses, and never influences an access's outcome. The
// inertness test in internal/core pins that guarantee.

// CounterWindow is one observation window of the simulated per-core
// performance counters.
type CounterWindow struct {
	// PerCore counts the accesses each core had served per hierarchy level
	// (indexed by Level) during the window.
	PerCore [][4]uint64
}

// Monitor aggregates per-core served-level counters into fixed-length
// observation windows.
type Monitor struct {
	cores  int
	window uint64
	wins   []CounterWindow
}

// NewMonitor returns a monitor for the given core count observing in
// windows of windowCycles simulated cycles.
func NewMonitor(cores int, windowCycles uint64) *Monitor {
	if cores <= 0 || windowCycles == 0 {
		panic("hier: monitor needs positive cores and window length")
	}
	return &Monitor{cores: cores, window: windowCycles}
}

// Windows returns the observed windows in time order, from cycle 0 through
// the last observed access. Windows with no observed traffic are present
// and all-zero.
func (m *Monitor) Windows() []CounterWindow { return m.wins }

// observe records one served access. Called by the hierarchy's access paths
// when the monitor is attached.
func (m *Monitor) observe(core int, level Level, now uint64) {
	idx := int(now / m.window)
	for idx >= len(m.wins) {
		m.wins = append(m.wins, CounterWindow{PerCore: make([][4]uint64, m.cores)})
	}
	m.wins[idx].PerCore[core][level]++
}

// AttachMonitor starts streaming served-access observations into mon; any
// previously attached monitor stops receiving. The monitor's core count
// must match the hierarchy's.
func (h *Hierarchy) AttachMonitor(mon *Monitor) {
	if mon != nil && mon.cores != len(h.l1) {
		panic("hier: monitor core count does not match the hierarchy")
	}
	h.mon = mon
}

// DetachMonitor stops observation and returns the detached monitor (nil if
// none was attached).
func (h *Hierarchy) DetachMonitor() *Monitor {
	mon := h.mon
	h.mon = nil
	return mon
}
