package attacks

import (
	"streamline/internal/hier"
	"streamline/internal/mem"
)

// FlushReload is the classic cross-core Flush+Reload channel (Yarom &
// Falkner, USENIX Sec'14; rates per Gruss et al.): per bit, the sender
// loads a shared address for a 0; the receiver reloads it, decodes the
// latency, and flushes it to reset the channel.
type FlushReload struct {
	env  *epochEnv
	addr mem.Addr
	// sCore/rCore are the pinned cores.
	sCore, rCore int
}

// FlushReloadWindow is the default bit period in cycles, chosen so the
// channel lands at the ~298 KB/s reported by Gruss et al. on a healthy
// window.
const FlushReloadWindow = 1600

// newFlushReload builds the attack on h (see Build).
func newFlushReload(s Spec, h *hier.Hierarchy) (*FlushReload, error) {
	env, err := newEpochEnv(s, h, FlushReloadWindow)
	if err != nil {
		return nil, err
	}
	var alloc mem.Allocator
	reg := alloc.Alloc(4096)
	return &FlushReload{env: env, addr: reg.Base, sCore: 0, rCore: 1}, nil
}

// Name implements Attack.
func (a *FlushReload) Name() string { return "flush+reload" }

// Model implements Attack.
func (a *FlushReload) Model() string { return Model(a.Name()) }

// Run implements Attack.
func (a *FlushReload) Run(bits []byte) (*Result, error) {
	e := a.env
	lat := e.m.Lat
	// The receiver schedules its reload+flush so that, in the jitter-free
	// case, everything finishes inside the window: two timers, a
	// worst-case reload, and the flush.
	budget := uint64(2*lat.TimerOverhead + 360 + lat.FlushLatency)
	decoded := make([]byte, len(bits))
	t := uint64(0)
	for i, b := range bits {
		senderAt := t + e.jitter()
		reloadAt := t + e.jitter()
		if e.window > budget {
			reloadAt += e.window - budget
		}

		// Apply the epoch's operations in true time order. When the
		// window is too small, the sender's load slips past the
		// receiver's reload (or even past the reset flush, leaving the
		// line to pollute the next epoch) — the error blow-up of
		// Figure 11.
		senderFirst := b == 0 && senderAt <= reloadAt
		if senderFirst {
			e.h.Access(a.sCore, a.addr, senderAt)
		}
		r := e.h.Access(a.rCore, a.addr, reloadAt)
		reloadLat := r.Latency
		flushAt := reloadAt + uint64(reloadLat)
		if b == 0 && !senderFirst && senderAt <= flushAt {
			e.h.Access(a.sCore, a.addr, senderAt)
		}
		e.h.Flush(a.rCore, a.addr)
		if b == 0 && !senderFirst && senderAt > flushAt {
			e.h.Access(a.sCore, a.addr, senderAt)
		}
		if reloadLat <= lat.Threshold {
			decoded[i] = 0
		} else {
			decoded[i] = 1
		}
		t += e.window
	}
	return e.result(bits, decoded, t)
}

// FlushFlush is the Flush+Flush channel (Gruss et al., DIMVA'16): the
// receiver decodes from the latency of a clflush, which is slower when the
// line is cached. No reload is needed, so the window shrinks and the rate
// rises, at the cost of a ~10-cycle decision margin.
type FlushFlush struct {
	env          *epochEnv
	addr         mem.Addr
	sCore, rCore int
	// flushJitterSD is measurement noise on the flush latency; the small
	// hit/miss margin makes this the attack's error floor.
	flushJitterSD float64
}

// FlushFlushWindow is the default bit period in cycles (≈496 KB/s).
const FlushFlushWindow = 960

// newFlushFlush builds the attack on h (see Build).
func newFlushFlush(s Spec, h *hier.Hierarchy) (*FlushFlush, error) {
	env, err := newEpochEnv(s, h, FlushFlushWindow)
	if err != nil {
		return nil, err
	}
	var alloc mem.Allocator
	reg := alloc.Alloc(4096)
	return &FlushFlush{env: env, addr: reg.Base, sCore: 0, rCore: 1, flushJitterSD: 2.0}, nil
}

// Name implements Attack.
func (a *FlushFlush) Name() string { return "flush+flush" }

// Model implements Attack.
func (a *FlushFlush) Model() string { return Model(a.Name()) }

// Run implements Attack.
func (a *FlushFlush) Run(bits []byte) (*Result, error) {
	e := a.env
	lat := e.m.Lat
	threshold := (lat.FlushLatency + lat.FlushMiss) / 2
	budget := uint64(2*lat.TimerOverhead + lat.FlushLatency)
	decoded := make([]byte, len(bits))
	t := uint64(0)
	for i, b := range bits {
		senderAt := t + e.jitter()
		flushAt := t + e.jitter()
		if e.window > budget {
			flushAt += e.window - budget
		}
		senderLate := b == 0 && senderAt+360 > flushAt
		if b == 0 && !senderLate {
			e.h.Access(a.sCore, a.addr, senderAt)
		}
		fl, _ := e.h.Flush(a.rCore, a.addr)
		if senderLate {
			// The sender's install lands after the flush and persists
			// into the next epoch.
			e.h.Access(a.sCore, a.addr, senderAt)
		}
		measured := float64(fl) + e.x.Norm()*a.flushJitterSD
		if measured >= float64(threshold) {
			decoded[i] = 0 // slow flush: line was cached
		} else {
			decoded[i] = 1
		}
		t += e.window
	}
	return e.result(bits, decoded, t)
}
