package hier

import (
	"streamline/internal/cache"
	"streamline/internal/mem"
)

// Test probes into hierarchy state that no shipped caller reads.

// LLC exposes the shared cache (domain 0's partition on partitioned
// systems).
func (h *Hierarchy) LLC() *cache.Cache { return h.llcs[0] }

// ProbePrivate reports whether a's line is in core's L1 or L2.
func (h *Hierarchy) ProbePrivate(core int, a mem.Addr) bool {
	h.checkCore(core)
	line := h.geom.LineOf(a)
	return h.l1[core].Probe(line) || h.l2[core].Probe(line)
}

// CheckInclusion verifies that every line resident in a private cache is
// also in the LLC and, on the fast path, that the directory records the
// holder: core c's bit is set in the dir word of the LLC way holding each
// line of c's L1 and L2. It returns the first violating line found. Ways
// are read with LineAt, so the check moves no last-hit-way hint and leaves
// the state it inspects exactly as it found it.
func (h *Hierarchy) CheckInclusion() (mem.Line, bool) {
	for c := range h.l1 {
		llc := h.llcFor(c)
		for _, lv := range []*cache.Cache{h.l1[c], h.l2[c]} {
			for s := 0; s < lv.Sets(); s++ {
				for w := 0; w < lv.Ways(); w++ {
					line, ok := lv.LineAt(s, w)
					if !ok {
						continue
					}
					lw := llcWay(llc, line)
					if lw < 0 {
						return line, false
					}
					if h.dir != nil && h.dir[llc.SetOf(line)*h.dirWays+lw]&(1<<uint(c)) == 0 {
						return line, false
					}
				}
			}
		}
	}
	return 0, true
}

// llcWay returns the way of llc holding line, or -1.
func llcWay(llc *cache.Cache, line mem.Line) int {
	set := llc.SetOf(line)
	for w := 0; w < llc.Ways(); w++ {
		if l, ok := llc.LineAt(set, w); ok && l == line {
			return w
		}
	}
	return -1
}

// clearDirBit clears core's directory bit for a's line, the corruption
// TestCheckInclusionCatchesClearedDirBit requires CheckInclusion to report.
// It reports whether the line was in the LLC.
func (h *Hierarchy) clearDirBit(core int, a mem.Addr) bool {
	line := h.geom.LineOf(a)
	llc := h.llcFor(core)
	w := llcWay(llc, line)
	if w < 0 {
		return false
	}
	h.dir[llc.SetOf(line)*h.dirWays+w] &^= 1 << uint(core)
	return true
}
