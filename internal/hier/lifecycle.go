// State lifecycle for the full hierarchy (see DESIGN.md "State lifecycle"):
// Reset reinitializes every component in place to exactly the state a fresh
// New with the same machine/options and the new seed would produce, Clone
// deep-copies the whole machine, and CopyFrom restores a same-shape
// hierarchy from another without allocating. Reset and Clone require every
// replacement policy to implement the cache/prefetch lifecycles — true for
// all hier-owned components; only a caller-supplied ablation LLCPolicy can
// opt a hierarchy out.

package hier

import (
	"fmt"

	"streamline/internal/mem"
	"streamline/internal/prefetch"
)

// The per-component seed derivations used by New, shared with Reset and
// ReplayWarmup so an in-place reseed reproduces construction exactly.
const (
	llcSeedXor  = 0x11c
	dramSeedXor = 0xd7a3
	fillSeedXor = 0xf111
)

// llcSeed derives the seed New gives domain d's hier-owned LLC policy.
func llcSeed(seed uint64, d int) uint64 { return seed ^ llcSeedXor ^ uint64(d)<<32 }

// Reset reinitializes the hierarchy in place to exactly the state
// New(h.Machine(), opts-with-seed) would produce, allocating nothing. It
// fails (leaving the hierarchy unusable — discard it) when a component does
// not support the lifecycle: a caller-supplied LLC policy cannot be
// re-derived from a seed, so such hierarchies are not poolable.
func (h *Hierarchy) Reset(seed uint64) error {
	if h.opt.LLCPolicy != nil {
		return fmt.Errorf("hier: Reset cannot re-derive the caller-supplied LLC policy %s", h.opt.LLCPolicy.Name())
	}
	h.rec = nil
	h.mon = nil // external instrumentation: a fresh hierarchy has none
	if h.quota != nil {
		h.quota.reset()
	}
	for d, llc := range h.llcs {
		if err := llc.Reset(llcSeed(seed, d)); err != nil {
			return fmt.Errorf("LLC[%d]: %w", d, err)
		}
	}
	for c := range h.l1 {
		// The private levels run tree-PLRU, which ignores the seed.
		if err := h.l1[c].Reset(0); err != nil {
			return fmt.Errorf("L1[%d]: %w", c, err)
		}
		if err := h.l2[c].Reset(0); err != nil {
			return fmt.Errorf("L2[%d]: %w", c, err)
		}
		h.pf[c].Reset()
		if h.tlbs != nil {
			h.tlbs[c].Reset()
		}
	}
	h.dram.Reset(seed ^ dramSeedXor)
	if h.fillRnd != nil {
		h.fillRnd.Reseed(seed ^ fillSeedXor)
	}
	h.pfBuf = h.pfBuf[:0]
	for i := range h.dir {
		h.dir[i] = 0
	}
	h.orphans = h.orphans[:0]
	h.Served = [4]uint64{}
	for i := range h.ServedPerCore {
		h.ServedPerCore[i] = [4]uint64{}
	}
	h.SkippedFills = 0
	h.opt.Seed = seed
	return nil
}

// Clone returns a deep copy of the hierarchy that evolves independently of
// the receiver. The machine description and construction options are shared
// (immutable); every piece of mutable state — cache contents, policy
// metadata, prefetcher training, TLB entries, DRAM timing, directory and
// statistics — is copied.
func (h *Hierarchy) Clone() (*Hierarchy, error) {
	n := &Hierarchy{
		mach: h.mach,
		geom: h.geom,
		//detlint:allow lifecycle -- Options' reference fields are construction-time config shared by design; Seed, the one mutated field, is a value
		opt:          h.opt,
		domains:      append([]int(nil), h.domains...),
		dram:         h.dram.Clone(),
		fillP:        h.fillP,
		fast:         h.fast,
		dirWays:      h.dirWays,
		pfBuf:        make([]mem.Addr, 0, 8),
		Served:       h.Served,
		SkippedFills: h.SkippedFills,
	}
	for d, llc := range h.llcs {
		c, err := llc.Clone()
		if err != nil {
			return nil, fmt.Errorf("LLC[%d]: %w", d, err)
		}
		n.llcs = append(n.llcs, c)
	}
	for c := range h.l1 {
		l1, err := h.l1[c].Clone()
		if err != nil {
			return nil, fmt.Errorf("L1[%d]: %w", c, err)
		}
		l2, err := h.l2[c].Clone()
		if err != nil {
			return nil, fmt.Errorf("L2[%d]: %w", c, err)
		}
		n.l1 = append(n.l1, l1)
		n.l2 = append(n.l2, l2)
		pf, ok := h.pf[c].(prefetch.Lifecycle)
		if !ok {
			return nil, fmt.Errorf("hier: prefetcher %s does not implement the state lifecycle", h.pf[c].Name())
		}
		n.pf = append(n.pf, pf.Clone())
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
	return n, nil
}

// CopyFrom overwrites the hierarchy's state with src's, in place and without
// allocating. The two hierarchies must have been built from the same machine
// and options (callers pair them by config fingerprint); a shape mismatch
// panics.
func (h *Hierarchy) CopyFrom(src *Hierarchy) {
	if len(h.llcs) != len(src.llcs) || len(h.l1) != len(src.l1) ||
		h.fast != src.fast || (h.tlbs == nil) != (src.tlbs == nil) ||
		(h.fillRnd == nil) != (src.fillRnd == nil) ||
		(h.quota == nil) != (src.quota == nil) {
		panic("hier: CopyFrom between mismatched hierarchies")
	}
	for d := range h.llcs {
		h.llcs[d].CopyFrom(src.llcs[d])
	}
	for c := range h.l1 {
		h.l1[c].CopyFrom(src.l1[c])
		h.l2[c].CopyFrom(src.l2[c])
		h.pf[c].(prefetch.Lifecycle).CopyStateFrom(src.pf[c])
		if h.tlbs != nil {
			h.tlbs[c].CopyFrom(src.tlbs[c])
		}
	}
	h.dram.CopyFrom(src.dram)
	if h.fillRnd != nil {
		h.fillRnd.CopyStateFrom(src.fillRnd)
	}
	if h.quota != nil {
		h.quota.copyFrom(src.quota)
	}
	// h.mon is left untouched: the destination keeps (or lacks) its own
	// instrumentation.
	h.pfBuf = h.pfBuf[:0]
	copy(h.dir, src.dir)
	h.orphans = append(h.orphans[:0], src.orphans...)
	h.Served = src.Served
	copy(h.ServedPerCore, src.ServedPerCore)
	h.SkippedFills = src.SkippedFills
	h.opt.Seed = src.opt.Seed
}
