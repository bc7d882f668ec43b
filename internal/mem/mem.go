// Package mem provides the address arithmetic shared by the simulator and
// the attacks: cache-line and page decomposition of flat physical addresses,
// and the shared-array region the colluding processes communicate over.
//
// The simulator uses a flat 64-bit physical address space. The shared array
// the paper maps via shared libraries or KSM (Section 6) is modelled as a
// contiguous, line-aligned Region of that space; private data used by noise
// agents and baseline attacks lives in disjoint regions handed out by an
// Allocator.
package mem

import (
	"fmt"
	"math/bits"
)

// Addr is a byte address in the simulated physical address space.
type Addr uint64

// Line identifies a cache line (Addr >> log2(lineBytes)).
type Line uint64

// MaxAddrSpace bounds the simulated physical address space (256GB). The
// cap keeps every line number below 2^32 for any line size >= 64 bytes,
// which lets the cache model store tags as 32-bit values — halving the
// host-side footprint of its hottest arrays. Allocator.Alloc enforces it;
// no experiment in the repository comes within two orders of magnitude.
const MaxAddrSpace = 1 << 38

// Geometry captures the line and page sizes used for address decomposition.
type Geometry struct {
	LineBytes int
	PageBytes int
}

// NewGeometry validates and returns a Geometry.
func NewGeometry(lineBytes, pageBytes int) (Geometry, error) {
	if lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		return Geometry{}, fmt.Errorf("mem: line size %d is not a positive power of two", lineBytes)
	}
	if pageBytes <= 0 || pageBytes&(pageBytes-1) != 0 {
		return Geometry{}, fmt.Errorf("mem: page size %d is not a positive power of two", pageBytes)
	}
	if pageBytes%lineBytes != 0 {
		return Geometry{}, fmt.Errorf("mem: page size %d not a multiple of line size %d", pageBytes, lineBytes)
	}
	return Geometry{LineBytes: lineBytes, PageBytes: pageBytes}, nil
}

// LineOf returns the cache line containing a. Line and page sizes are
// powers of two (NewGeometry validates), so the divisions decomposing an
// address reduce to shifts and masks — address decomposition runs on every
// simulated load, where a 64-bit divide is the single most expensive
// instruction on the path.
func (g Geometry) LineOf(a Addr) Line {
	return Line(uint64(a) >> uint(bits.TrailingZeros64(uint64(g.LineBytes))))
}

// AddrOfLine returns the first byte address of line l.
func (g Geometry) AddrOfLine(l Line) Addr { return Addr(uint64(l) * uint64(g.LineBytes)) }

// PageOf returns the page number containing a.
func (g Geometry) PageOf(a Addr) uint64 {
	return uint64(a) >> uint(bits.TrailingZeros64(uint64(g.PageBytes)))
}

// LineInPage returns the index of a's cache line within its page.
func (g Geometry) LineInPage(a Addr) int {
	return int((uint64(a) & uint64(g.PageBytes-1)) >> uint(bits.TrailingZeros64(uint64(g.LineBytes))))
}

// LinesPerPage returns the number of cache lines per page. Like LineOf it
// relies on power-of-two sizes: the prefetchers ask on every observation.
func (g Geometry) LinesPerPage() int {
	return g.PageBytes >> uint(bits.TrailingZeros64(uint64(g.LineBytes)))
}

// Region is a contiguous span of the simulated address space, line-aligned.
type Region struct {
	Base Addr
	Size int // bytes
}

// AddrAt returns the address at byte offset off. It panics if off is out of
// range.
func (r Region) AddrAt(off int) Addr {
	if off < 0 || off >= r.Size {
		panic(fmt.Sprintf("mem: offset %d outside region of size %d", off, r.Size))
	}
	return r.Base + Addr(off)
}

// Allocator hands out disjoint, page-aligned regions of the simulated
// physical address space. The zero value starts allocating at a non-zero
// base so that address 0 never aliases real data.
type Allocator struct {
	next Addr
	page int
}

// NewAllocator returns an allocator aligning all regions to pageBytes.
func NewAllocator(pageBytes int) *Allocator {
	return &Allocator{next: Addr(pageBytes), page: pageBytes}
}

// Alloc returns a new page-aligned region of the given size (rounded up to a
// whole number of pages).
func (a *Allocator) Alloc(size int) Region {
	if size <= 0 {
		panic("mem: Alloc with non-positive size")
	}
	if a.page == 0 {
		a.page = 4096
		a.next = Addr(a.page)
	}
	rounded := (size + a.page - 1) / a.page * a.page
	r := Region{Base: a.next, Size: rounded}
	a.next += Addr(rounded)
	if a.next > MaxAddrSpace {
		panic(fmt.Sprintf("mem: allocations exceed the %dGB simulated address space", MaxAddrSpace>>30))
	}
	return r
}
