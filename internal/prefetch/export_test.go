package prefetch

import "streamline/internal/mem"

// Observe wrappers that drive one part of the composite on its own, as
// Composite.Observe does with the address decomposed once for all three.

// Observe records a demand access to addr and appends any prefetch
// candidates (as line addresses) to dst, returning the extended slice.
func (p *NextLine) Observe(addr mem.Addr, dst []mem.Addr) []mem.Addr {
	return p.observe(p.g.LineOf(addr), p.g.LineInPage(addr), dst)
}

// Observe records a demand access to addr and appends any prefetch
// candidates to dst.
func (p *Streamer) Observe(addr mem.Addr, dst []mem.Addr) []mem.Addr {
	return p.observe(addr, p.g.PageOf(addr), int8(p.g.LineInPage(addr)), dst)
}

// Observe records a demand access to addr and appends any prefetch
// candidates to dst.
func (p *Stride) Observe(addr mem.Addr, dst []mem.Addr) []mem.Addr {
	return p.observe(addr, p.g.PageOf(addr), dst)
}
