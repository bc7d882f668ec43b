package hier

import "streamline/internal/mem"

// This file is the batched access-stream kernel: AccessBatch executes a
// caller-provided chunk of demand loads in one straight-line loop instead
// of one Access call per load. The simulated machine is untouched — every
// state transition (cache contents, replacement ages, prefetcher training,
// DRAM timing, statistics) is identical to issuing the same addresses
// through Access one at a time, which the cross-machine property test in
// batch_test.go and the golden conformance suite pin. What the batch
// removes is interface-crossing overhead: the core bounds check, the
// fast-path dispatch and the cost-model set-up run once per chunk, and the
// loop calls accessFast or accessGeneral directly.

// BatchClock describes how the local clock advances across the accesses of
// one batch, mirroring the cost conventions of the scalar call sites:
//
//	cost(access) = latency/Div + Extra     (Div <= 1 means the full latency)
//
// With Hold false the next access is issued at the previous access's issue
// time plus its cost (dependent or pipelined loads — the hier/stream and
// attack probe loops). With Hold true every access is issued at the batch
// start time while costs still accumulate (a burst issued at one timestamp
// — the noise agents and setup-time warmup walks).
type BatchClock struct {
	// Div divides each access's latency in the cost term (memory-level
	// parallelism); values <= 1 charge the full latency.
	Div int
	// Extra is a constant per-access cost (loop overhead) added after the
	// scaled latency.
	Extra uint64
	// Hold freezes the issue clock at the batch start time.
	Hold bool
}

// BatchResult aggregates one AccessBatch execution.
type BatchResult struct {
	// Cost is the total clock advance of the batch under the BatchClock
	// cost model.
	Cost uint64
	// LatencySum is the sum of the raw access latencies (the probe loops
	// of the conflict attacks decode on this).
	LatencySum uint64
	// Served counts the batch's accesses per serving level.
	Served [4]uint64
}

// AccessBatch performs len(addrs) demand loads from core, starting at time
// now, exactly as if the caller had run
//
//	t := now
//	for _, a := range addrs {
//		r := h.Access(core, a, t)
//		c := uint64(r.Latency)/div + clk.Extra
//		res.Cost += c
//		res.LatencySum += uint64(r.Latency)
//		res.Served[r.Level]++
//		if !clk.Hold {
//			t += c
//		}
//	}
//
// but with the per-access prologue hoisted out of the loop. It allocates
// nothing.
//
//detlint:hotpath
func (h *Hierarchy) AccessBatch(core int, addrs []mem.Addr, now uint64, clk BatchClock) BatchResult {
	h.checkCore(core)
	div := uint64(1)
	if clk.Div > 1 {
		div = uint64(clk.Div)
	}
	var res BatchResult
	t := now
	if !h.fast {
		// General configurations (partitioned LLC, TLB, random fill) take
		// the scalar path that runs their feature hooks on every access.
		for _, a := range addrs {
			r := h.accessGeneral(core, a, t)
			if h.mon != nil {
				//detlint:allow hotpathalloc -- counter monitoring is opt-in instrumentation, nil unless a detector is attached
				h.mon.observe(core, r.Level, t)
			}
			c := uint64(r.Latency)/div + clk.Extra
			res.Cost += c
			res.LatencySum += uint64(r.Latency)
			res.Served[r.Level]++
			if !clk.Hold {
				t += c
			}
		}
		return res
	}
	for _, a := range addrs {
		r := h.accessFast(core, a, t)
		if h.mon != nil {
			//detlint:allow hotpathalloc -- counter monitoring is opt-in instrumentation, nil unless a detector is attached
			h.mon.observe(core, r.Level, t)
		}
		c := uint64(r.Latency)/div + clk.Extra
		res.Cost += c
		res.LatencySum += uint64(r.Latency)
		res.Served[r.Level]++
		if !clk.Hold {
			t += c
		}
	}
	return res
}
