// Package pattern generates the address sequences covert channels walk
// over the shared array.
//
// The central design problem (Section 3.3 of the paper) is to find a
// sequence that (a) spreads over most LLC sets, so the cache can buffer a
// large sender-receiver gap, and (b) is not learnable by the hardware
// prefetchers. The paper's answer, Equations (1)-(3), is the XY pattern
// with stride x=3 over y=2 interleaved pages, starting mid-page at line 14:
//
//	Pg-num      = 2 * int(3*i/128) + i%2
//	Cl-num      = (14 + 3*int(i/2)) % 64
//	array-index = (Pg-num*4096 + Cl-num*64) % arr-sz
//
// This package provides that pattern in parametric form (any x, y — used to
// regenerate Table 1) and the naive one-line-per-page pattern of prior
// work.
package pattern

import (
	"fmt"
	"math/bits"

	"streamline/internal/mem"
)

// Pattern maps a bit index to a byte offset inside a shared array of the
// given size. Implementations are pure functions of (i, arrSize).
type Pattern interface {
	// Name identifies the pattern in experiment output.
	Name() string
	// Offset returns the byte offset of bit i's cache line within an
	// array of arrSize bytes.
	Offset(i uint64, arrSize int) int
}

// Chunker is implemented by patterns that can generate a run of addresses
// in one call. The agents' hot loops consume addresses through chunk
// buffers (one FillAddrs call per buffer) instead of one interface-
// dispatched Offset call per bit; the stock patterns implement it with the
// per-bit math inlined into a straight-line loop.
type Chunker interface {
	// FillAddrs writes the addresses of bits start..start+len(dst)-1 —
	// base plus Offset(i, arrSize) — into dst.
	FillAddrs(dst []mem.Addr, base mem.Addr, start uint64, arrSize int)
}

// FillAddrs fills dst with the addresses of bits start..start+len(dst)-1
// of pattern p over an array of arrSize bytes based at base. Patterns
// implementing Chunker generate the chunk in one call; any other pattern
// falls back to per-bit Offset calls with identical results.
func FillAddrs(p Pattern, dst []mem.Addr, base mem.Addr, start uint64, arrSize int) {
	if c, ok := p.(Chunker); ok {
		c.FillAddrs(dst, base, start, arrSize)
		return
	}
	for j := range dst {
		dst[j] = base + mem.Addr(p.Offset(start+uint64(j), arrSize))
	}
}

// XY is the parametric strided pattern: every x-th cache line within a
// page, with lines from y pages accessed before the next line of the same
// page. Start is the first line index within each page (the paper found
// mid-page starts fool the stride tracker best and uses 14).
type XY struct {
	X, Y  int
	Start int
	geom  mem.Geometry

	// Offset runs once per transmitted bit, so its divisions matter. The
	// geometry guarantees lines-per-page is a power of two; when Y is one
	// too (the paper's default y=2), every division in Equations (1)-(3)
	// is a shift. yShift is log2(Y), or -1 when Y is not a power of two.
	yShift   int
	lppShift uint
}

// NewXY builds an XY pattern for the given geometry. It panics on
// non-positive x or y: patterns are built from compile-time experiment
// tables.
func NewXY(g mem.Geometry, x, y, start int) *XY {
	if x <= 0 || y <= 0 {
		panic(fmt.Sprintf("pattern: invalid XY parameters x=%d y=%d", x, y))
	}
	p := &XY{X: x, Y: y, Start: start, geom: g,
		yShift:   -1,
		lppShift: uint(bits.TrailingZeros(uint(g.LinesPerPage()))),
	}
	if y&(y-1) == 0 {
		p.yShift = bits.TrailingZeros(uint(y))
	}
	return p
}

// NewStreamline returns the paper's transmission pattern (x=3, y=2,
// start=14) for the given geometry.
func NewStreamline(g mem.Geometry) *XY { return NewXY(g, 3, 2, 14) }

// Name implements Pattern.
func (p *XY) Name() string {
	if p.X == 3 && p.Y == 2 && p.Start == 14 {
		return "streamline"
	}
	return fmt.Sprintf("xy(x=%d,y=%d)", p.X, p.Y)
}

// Offset implements Pattern, generalizing Equations (1)-(3).
func (p *XY) Offset(i uint64, arrSize int) int {
	lpp := uint64(p.geom.LinesPerPage())
	x, y := uint64(p.X), uint64(p.Y)
	var pg, cl uint64
	if p.yShift >= 0 {
		pg = y*((x*i)>>(p.lppShift+uint(p.yShift))) + i&(y-1)
		cl = (uint64(p.Start) + x*(i>>uint(p.yShift))) & (lpp - 1)
	} else {
		pg = y*(x*i/(lpp*y)) + i%y
		cl = (uint64(p.Start) + x*(i/y)) % lpp
	}
	off := pg*uint64(p.geom.PageBytes) + cl*uint64(p.geom.LineBytes)
	if sz := uint64(arrSize); sz&(sz-1) == 0 {
		return int(off & (sz - 1))
	}
	return int(off % uint64(arrSize))
}

// FillAddrs implements Chunker: Equations (1)-(3) with the per-bit shift
// math inlined into one loop, so a chunk of addresses costs one call. The
// all-powers-of-two case (the paper's y=2 over a power-of-two array) is
// fully branch-free per bit; everything else falls back to Offset, whose
// results this must match bit for bit (pinned by TestFillAddrsMatchesOffset).
func (p *XY) FillAddrs(dst []mem.Addr, base mem.Addr, start uint64, arrSize int) {
	sz := uint64(arrSize)
	if p.yShift < 0 || sz&(sz-1) != 0 {
		for j := range dst {
			dst[j] = base + mem.Addr(p.Offset(start+uint64(j), arrSize))
		}
		return
	}
	x, y := uint64(p.X), uint64(p.Y)
	totShift := p.lppShift + uint(p.yShift)
	yShift := uint(p.yShift)
	yMask := y - 1
	lppMask := uint64(p.geom.LinesPerPage()) - 1
	szMask := sz - 1
	st := uint64(p.Start)
	pageB, lineB := uint64(p.geom.PageBytes), uint64(p.geom.LineBytes)
	for j := range dst {
		i := start + uint64(j)
		pg := y*((x*i)>>totShift) + i&yMask
		cl := (st + x*(i>>yShift)) & lppMask
		dst[j] = base + mem.Addr((pg*pageB+cl*lineB)&szMask)
	}
}

// LapBits returns how many bits the pattern transmits before its offsets
// wrap around an array of arrSize bytes (i.e. before Pg-num leaves the
// array). This is the thrashing period central to Table 4.
func (p *XY) LapBits(arrSize int) uint64 {
	pages := uint64(arrSize / p.geom.PageBytes)
	if pages == 0 {
		return 0
	}
	lpp := uint64(p.geom.LinesPerPage())
	x, y := uint64(p.X), uint64(p.Y)
	// Find the smallest i whose page number reaches the array end.
	lo, hi := uint64(0), pages*lpp/x+lpp*y+1
	for lo < hi {
		mid := (lo + hi) / 2
		pg := y*(x*mid/(lpp*y)) + mid%y
		if pg >= pages {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// NaivePerPage is the prior-work pattern that accesses one cache line per
// page: it trivially fools the prefetcher but covers very few LLC sets
// (the line-in-page bits of the set index are constant).
type NaivePerPage struct {
	geom mem.Geometry
	// Line is the fixed line-in-page each access uses.
	Line int
}

// NewNaivePerPage returns the one-line-per-page pattern.
func NewNaivePerPage(g mem.Geometry) *NaivePerPage { return &NaivePerPage{geom: g} }

// Name implements Pattern.
func (p *NaivePerPage) Name() string { return "naive-per-page" }

// Offset implements Pattern.
func (p *NaivePerPage) Offset(i uint64, arrSize int) int {
	off := i*uint64(p.geom.PageBytes) + uint64(p.Line*p.geom.LineBytes)
	return int(off % uint64(arrSize))
}

// FillAddrs implements Chunker.
func (p *NaivePerPage) FillAddrs(dst []mem.Addr, base mem.Addr, start uint64, arrSize int) {
	pageB := uint64(p.geom.PageBytes)
	lineOff := uint64(p.Line * p.geom.LineBytes)
	sz := uint64(arrSize)
	for j := range dst {
		dst[j] = base + mem.Addr(((start+uint64(j))*pageB+lineOff)%sz)
	}
}
