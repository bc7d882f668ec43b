// State lifecycle for the full hierarchy (see DESIGN.md "State lifecycle"):
// Clone deep-copies the whole machine. It is how a run reuses a simulator:
// the warm snapshot and every chain checkpoint hand out clones. Every
// component declares its own Clone (cache.Policy requires one), so a clone
// cannot fail.

package hier

import "streamline/internal/mem"

// The per-component seed derivations used by New, shared with ReplayWarmup
// so an in-place reseed reproduces construction exactly.
const (
	llcSeedXor  = 0x11c
	dramSeedXor = 0xd7a3
	fillSeedXor = 0xf111
)

// llcSeed derives the seed New gives domain d's hier-owned LLC policy.
func llcSeed(seed uint64, d int) uint64 { return seed ^ llcSeedXor ^ uint64(d)<<32 }

// Clone returns a deep copy of the hierarchy that evolves independently of
// the receiver. The machine description and construction options are shared
// (immutable); every piece of mutable state — cache contents, policy
// metadata, prefetcher training, TLB entries, DRAM timing, directory and
// statistics — is copied.
func (h *Hierarchy) Clone() *Hierarchy {
	n := &Hierarchy{
		mach: h.mach,
		geom: h.geom,
		//detlint:allow lifecycle -- Options is construction-time config, never mutated after New; clones share its reference fields by design
		opt:          h.opt,
		domains:      append([]int(nil), h.domains...),
		evictMask:    h.evictMask,
		dram:         h.dram.Clone(),
		fillP:        h.fillP,
		fast:         h.fast,
		dirWays:      h.dirWays,
		pfBuf:        make([]mem.Addr, 0, 8),
		Served:       h.Served,
		SkippedFills: h.SkippedFills,
	}
	for _, llc := range h.llcs {
		n.llcs = append(n.llcs, llc.Clone())
	}
	for c := range h.l1 {
		n.l1 = append(n.l1, h.l1[c].Clone())
		n.l2 = append(n.l2, h.l2[c].Clone())
		if h.pf != nil {
			n.pf = append(n.pf, h.pf[c].Clone())
		}
		if h.tlbs != nil {
			n.tlbs = append(n.tlbs, h.tlbs[c].Clone())
		}
	}
	if h.fillRnd != nil {
		n.fillRnd = h.fillRnd.Clone()
	}
	if h.quota != nil {
		n.quota = h.quota.clone()
	}
	// h.mon is deliberately not cloned: a monitor is external
	// instrumentation attached to one hierarchy.
	if h.dir != nil {
		n.dir = append([]uint8(nil), h.dir...)
	}
	if h.orphans != nil {
		n.orphans = make([]orphan, len(h.orphans), cap(h.orphans))
		copy(n.orphans, h.orphans)
	}
	n.ServedPerCore = make([][4]uint64, len(h.ServedPerCore))
	copy(n.ServedPerCore, h.ServedPerCore)
	return n
}
