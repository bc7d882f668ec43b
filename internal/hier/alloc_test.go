package hier

import (
	"testing"

	"streamline/internal/mem"
	"streamline/internal/params"
	"streamline/internal/tlb"
)

// TestFastPathGating pins down exactly which configurations take the
// straight-line Access path: the paper-default hierarchy does; every
// mitigation that adds per-access branches (partitioning, TLB modelling,
// random fill) falls back to the general path.
func TestFastPathGating(t *testing.T) {
	m := params.SkylakeE3()
	mk := func(opt Options) *Hierarchy {
		t.Helper()
		h, err := New(m, opt)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	if h := mk(Options{Seed: 1}); !h.fast {
		t.Error("default options should take the fast path")
	}
	if h := mk(Options{Seed: 1, DisablePrefetch: true}); !h.fast {
		t.Error("prefetch-off is still single-domain/no-TLB/no-fill and should be fast")
	}
	if h := mk(Options{Seed: 1, PartitionWays: 4}); h.fast {
		t.Error("partitioned LLC must use the general path")
	}
	tcfg := tlb.Skylake4K()
	if h := mk(Options{Seed: 1, TLB: &tcfg}); h.fast {
		t.Error("TLB modelling must use the general path")
	}
	if h := mk(Options{Seed: 1, RandomFillProb: 0.5}); h.fast {
		t.Error("random-fill defense must use the general path")
	}
}

// TestFastAndGeneralPathsAgree replays one access trace through a fast-path
// hierarchy and a second hierarchy forced onto the general path by a
// zero-impact feature setting... there is no such setting by design (every
// general-path feature changes simulated behaviour), so instead this pins
// the two code paths against each other structurally: with h.fast toggled
// off by hand, the same seed and trace must produce identical results.
func TestFastAndGeneralPathsAgree(t *testing.T) {
	m := params.SkylakeE3()
	mkTrace := func(forceGeneral bool) ([]AccessResult, [4]uint64, uint64) {
		h, err := New(m, Options{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if forceGeneral {
			if !h.fast {
				t.Fatal("default hierarchy should start on the fast path")
			}
			h.fast = false
		}
		alloc := mem.NewAllocator(m.PageSize)
		region := alloc.Alloc(1 << 22)
		var out []AccessResult
		var now uint64
		stride := 3 * h.Geometry().LineBytes
		off := 0
		for i := 0; i < 200000; i++ {
			core := i & 1
			r := h.Access(core, region.AddrAt(off), now)
			now += uint64(r.Latency)
			out = append(out, r)
			off += stride
			if off >= region.Size {
				off = (off + h.Geometry().LineBytes) % region.Size // shift phase each lap
			}
		}
		return out, h.Served, h.LLC().Stats.Evictions
	}
	fastTrace, fastServed, fastEv := mkTrace(false)
	genTrace, genServed, genEv := mkTrace(true)
	if fastServed != genServed {
		t.Fatalf("served-per-level diverges: %v (fast) vs %v (general)", fastServed, genServed)
	}
	if fastEv != genEv {
		t.Fatalf("LLC evictions diverge: %d (fast) vs %d (general)", fastEv, genEv)
	}
	for i := range fastTrace {
		if fastTrace[i] != genTrace[i] {
			t.Fatalf("access %d diverges: %+v (fast) vs %+v (general)", i, fastTrace[i], genTrace[i])
		}
	}
}

// TestAccessFastPathZeroAllocs pins the common-case hierarchy access at
// zero allocations per load — across L1 hits, LLC fills, prefetcher
// activity, and DRAM-served misses.
func TestAccessFastPathZeroAllocs(t *testing.T) {
	h, err := New(params.SkylakeE3(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !h.fast {
		t.Fatal("default hierarchy should take the fast path")
	}
	region := mem.NewAllocator(params.SkylakeE3().PageSize).Alloc(16 << 20)
	stride := 3 * h.Geometry().LineBytes
	off := 0
	var now uint64
	step := func() {
		r := h.Access(0, region.AddrAt(off), now)
		now += uint64(r.Latency)
		off += stride
		if off >= region.Size {
			off = 0
		}
	}
	// Warm the prefetch buffer to its steady capacity before measuring.
	for i := 0; i < 10000; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(2000, step); avg != 0 {
		t.Errorf("fast-path hier.Access allocates %v times per op, want 0", avg)
	}
	// Repeated hit (L1-served) is the receiver's common decode outcome.
	addr := region.AddrAt(0)
	h.Access(0, addr, now)
	if avg := testing.AllocsPerRun(2000, func() { h.Access(0, addr, now) }); avg != 0 {
		t.Errorf("L1-hit hier.Access allocates %v times per op, want 0", avg)
	}
}

// TestCheckInclusionZeroAllocsSteadyState guards the probe's cost: tests
// poll CheckInclusion after every simulated step, so it reads ways in place
// and must not allocate at all.
func TestCheckInclusionZeroAllocsSteadyState(t *testing.T) {
	h, err := New(params.SkylakeE3(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	region := mem.NewAllocator(params.SkylakeE3().PageSize).Alloc(1 << 20)
	var now uint64
	for off := 0; off < region.Size; off += h.Geometry().LineBytes {
		r := h.Access(0, region.AddrAt(off), now)
		now += uint64(r.Latency)
	}
	if avg := testing.AllocsPerRun(20, func() {
		if _, ok := h.CheckInclusion(); !ok {
			t.Fatal("inclusion violated")
		}
	}); avg != 0 {
		t.Errorf("CheckInclusion allocates %v times per call, want 0", avg)
	}
}
