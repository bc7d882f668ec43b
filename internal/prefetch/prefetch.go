// Package prefetch models the hardware prefetchers Streamline must fool
// (Section 3.3.1): a next-line prefetcher, a per-page streamer that learns
// dense ascending/descending runs, and a global stride detector. Intel's
// prefetchers never cross 4 KB page boundaries, and the composite model
// preserves that property.
//
// The three components explain Table 1's structure:
//
//   - x = 1 (sequential lines) is covered by the next-line prefetcher for
//     any page interleaving y.
//   - y = 1 (one page at a time) is covered by the global stride detector:
//     consecutive accesses have a constant address delta.
//   - x = 2 is covered by the streamer even across page interleaving,
//     because the per-page delta stays within its dense window.
//   - x >= 3 with y >= 2 defeats all three: the per-page delta is too
//     sparse for the streamer, and interleaved pages make the global
//     address delta alternate so the stride detector never gains
//     confidence. This is the pattern Streamline transmits on.
package prefetch

import "streamline/internal/mem"

// NextLine models the DCU next-line prefetcher: it triggers only on an
// ascending streak (an access to the line immediately after the previously
// accessed line) and then fetches the following line of the same page.
// The streak requirement matters: an unconditional next-line prefetcher
// would pre-install lines of not-yet-transmitted bits and corrupt the
// channel, which real hardware demonstrably does not (Table 1).
type NextLine struct {
	g       mem.Geometry //detlint:lifecycle-skip address-decomposition geometry fixed at construction
	last    mem.Line
	lastSet bool
}

// NewNextLine returns a next-line prefetcher for the given geometry.
func NewNextLine(g mem.Geometry) *NextLine { return &NextLine{g: g} }

// observe records a demand access to line cur (line lip of its page) and
// appends any prefetch candidates (as line addresses) to dst, returning the
// extended slice. It allocates nothing beyond dst's growth; the same holds
// for every observe in this package. The address arrives decomposed
// because Composite shares one decomposition across all three prefetchers.
func (p *NextLine) observe(cur mem.Line, lip int, dst []mem.Addr) []mem.Addr {
	streak := p.lastSet && cur == p.last+1
	p.last, p.lastSet = cur, true
	if !streak {
		return dst
	}
	if lip+1 >= p.g.LinesPerPage() {
		return dst // never cross the page boundary
	}
	return append(dst, p.g.AddrOfLine(cur+1))
}

// pageNone marks a free Streamer slot in-band: no simulated access can
// land on page 2^64-1 (that would require an allocation reaching the top
// of the 64-bit address space), so the page array alone answers lookups.
const pageNone = ^uint64(0)

// streamMeta is the training state of one tracked page (the page number
// itself lives in Streamer.pages so the per-access lookup scans a compact
// array).
type streamMeta struct {
	lastLip int8 // last line-in-page observed
	stride  int8 // confirmed dense stride (signed)
	conf    int8
	lru     uint32
}

// Streamer is a per-page stream prefetcher in the style of Intel's L2
// streamer: it tracks the most recent line accessed in each of a small
// number of pages, trains when successive accesses to a page move by a
// small ("dense") stride, and then prefetches several lines ahead along
// the detected direction, within the page.
type Streamer struct {
	g     mem.Geometry //detlint:lifecycle-skip address-decomposition geometry fixed at construction
	pages []uint64     // tracked page per slot; pageNone = free
	meta  []streamMeta
	// last is the slot of the most recently observed page. Streaming
	// workloads revisit one page dozens of times before moving on, so the
	// hint usually answers the lookup with a single comparison instead of
	// a scan of all tracked pages. prev is the slot last held before it,
	// so a stream alternating between two pages (the channel's sender and
	// receiver) also skips the scan. Purely lookup accelerators: a stale
	// hint falls through to the scan, which gives the identical answer.
	last  int
	prev  int
	clock uint32
	// Window is the maximum |stride| (in lines) the streamer can learn.
	// Intel's streamer keys on dense runs; 2 reproduces Table 1's x<=2
	// rows being prefetched and x>=3 rows escaping.
	Window int //detlint:lifecycle-skip tuning knob set before use, constant while running
	// Degree is how many lines ahead are prefetched once trained.
	Degree int //detlint:lifecycle-skip tuning knob set before use, constant while running
	// ConfThreshold is how many confirming deltas are needed to train.
	ConfThreshold int //detlint:lifecycle-skip tuning knob set before use, constant while running
}

// NewStreamer returns a streamer with Intel-flavoured defaults (16 tracked
// pages, dense window 2, degree 4, 1 confirmation).
func NewStreamer(g mem.Geometry) *Streamer {
	p := &Streamer{
		g:             g,
		pages:         make([]uint64, 16),
		meta:          make([]streamMeta, 16),
		Window:        2,
		Degree:        4,
		ConfThreshold: 1,
	}
	for i := range p.pages {
		p.pages[i] = pageNone
	}
	return p
}

// observe records a demand access to addr, on page page at line lip, and
// appends any prefetch candidates to dst (see NextLine.observe).
func (p *Streamer) observe(addr mem.Addr, page uint64, lip int8, dst []mem.Addr) []mem.Addr {
	p.clock++

	i := p.lookup(page)
	if i < 0 {
		i = p.victim()
		p.pages[i] = page
		p.meta[i] = streamMeta{lastLip: lip, lru: p.clock}
		p.prev, p.last = p.last, i
		return dst
	}
	e := &p.meta[i]
	e.lru = p.clock
	delta := int(lip) - int(e.lastLip)
	e.lastLip = lip
	if delta == 0 {
		return dst
	}
	abs := delta
	if abs < 0 {
		abs = -abs
	}
	if abs > p.Window {
		// Sparse jump: lose confidence but keep tracking the page.
		e.conf = 0
		e.stride = 0
		return dst
	}
	if int(e.stride) == delta {
		if e.conf < 8 {
			e.conf++
		}
	} else {
		e.stride = int8(delta)
		e.conf = 1
	}
	if int(e.conf) <= p.ConfThreshold {
		return dst
	}
	// Trained: prefetch Degree lines ahead along the stride, within page.
	lpp := p.g.LinesPerPage()
	cur := int(lip)
	for i := 0; i < p.Degree; i++ {
		cur += delta
		if cur < 0 || cur >= lpp {
			break
		}
		base := addr - mem.Addr(int(lip)*p.g.LineBytes)
		dst = append(dst, base+mem.Addr(cur*p.g.LineBytes))
	}
	return dst
}

// lookup returns the slot tracking page, or -1. The last and previous
// observed slots are tried first; on a miss of both the scan touches only
// the 128-byte page array, not the training metadata. A page occupies at
// most one slot, so a hint hit is the slot the scan would find.
func (p *Streamer) lookup(page uint64) int {
	if p.pages[p.last] == page {
		return p.last
	}
	if p.pages[p.prev] == page {
		p.prev, p.last = p.last, p.prev
		return p.last
	}
	for i, pg := range p.pages {
		if pg == page {
			p.prev, p.last = p.last, i
			return i
		}
	}
	return -1
}

// victim returns the first free slot, or the least-recently-used one.
func (p *Streamer) victim() int {
	best := 0
	for i, pg := range p.pages {
		if pg == pageNone {
			return i
		}
		if p.meta[i].lru < p.meta[best].lru {
			best = i
		}
	}
	return best
}

// Stride is a global last-address stride detector: it learns a constant
// byte delta between consecutive demand accesses (any magnitude up to a
// page) and prefetches ahead once confident. Interleaving accesses from
// two or more pages makes consecutive deltas alternate, which is exactly
// how Streamline's (x>=3, y>=2) pattern escapes it.
type Stride struct {
	g        mem.Geometry //detlint:lifecycle-skip address-decomposition geometry fixed at construction
	lastAddr mem.Addr
	lastSet  bool
	delta    int64
	conf     int
	// Degree is how many strides ahead to prefetch when trained.
	Degree int //detlint:lifecycle-skip tuning knob set before use, constant while running
	// ConfThreshold is the number of identical consecutive deltas needed.
	ConfThreshold int //detlint:lifecycle-skip tuning knob set before use, constant while running
}

// NewStride returns a stride detector with default degree 2 and
// confirmation threshold 3. Three confirmations model the conservative
// training of real stride prefetchers; with fewer, the sender's own load
// stream (which skips 1-bits and so occasionally produces short
// constant-delta runs) trains the detector and pre-installs future bits.
func NewStride(g mem.Geometry) *Stride {
	return &Stride{g: g, Degree: 2, ConfThreshold: 3}
}

// observe records a demand access to addr, on page page, and appends any
// prefetch candidates to dst (see NextLine.observe). The page is only
// consumed on the trained path, but Composite has already paid for it.
func (p *Stride) observe(addr mem.Addr, page uint64, dst []mem.Addr) []mem.Addr {
	if !p.lastSet {
		p.lastAddr, p.lastSet = addr, true
		return dst
	}
	d := int64(addr) - int64(p.lastAddr)
	p.lastAddr = addr
	if d == 0 {
		return dst
	}
	limit := int64(p.g.PageBytes)
	if d > limit || d < -limit {
		p.conf = 0
		p.delta = 0
		return dst
	}
	if d == p.delta {
		p.conf++
	} else {
		p.delta = d
		p.conf = 1
	}
	if p.conf < p.ConfThreshold {
		return dst
	}
	// Trained: prefetch ahead, staying within the page of each target.
	cur := int64(addr)
	for i := 0; i < p.Degree; i++ {
		cur += d
		if cur < 0 {
			break
		}
		t := mem.Addr(cur)
		if p.g.PageOf(t) != page {
			break // prefetches do not cross page boundaries
		}
		dst = append(dst, p.g.AddrOfLine(p.g.LineOf(t)))
	}
	return dst
}

// Composite is the Skylake prefetcher set the paper had to defeat: the
// next-line prefetcher, the streamer and the stride detector observe every
// access in that order, and the lines they propose are deduplicated per
// observation.
type Composite struct {
	g  mem.Geometry //detlint:lifecycle-skip address-decomposition geometry fixed at construction
	nl *NextLine
	st *Streamer
	sd *Stride
	// seen is the per-observation dedup scratch. Observations propose at
	// most 1+Degree+Degree candidate lines, so a linear scan of a small
	// slice beats a hash map (whose clear/hash/probe cost dominated the
	// pre-batching Observe profile).
	seen []mem.Line //detlint:lifecycle-skip per-observation dedup scratch, resliced to [:0] before every use; contents never read across calls
}

// NewIntelLike returns the composite used in the experiments: next-line +
// streamer + global stride, mirroring the prefetchers the paper had to
// defeat on Skylake.
func NewIntelLike(g mem.Geometry) *Composite {
	return &Composite{g: g, nl: NewNextLine(g), st: NewStreamer(g), sd: NewStride(g), seen: make([]mem.Line, 0, 8)}
}

// Observe records a demand access to addr and appends the deduplicated
// union of the three parts' candidates to dst, in part order.
func (p *Composite) Observe(addr mem.Addr, dst []mem.Addr) []mem.Addr {
	start := len(dst)
	// Decompose the address once and hand the pieces to the fused observe
	// methods: the three parts would otherwise repeat the same
	// line/page/line-in-page shifts on every observation.
	line := p.g.LineOf(addr)
	page := p.g.PageOf(addr)
	lip := p.g.LineInPage(addr)
	dst = p.nl.observe(line, lip, dst)
	dst = p.st.observe(addr, page, int8(lip), dst)
	dst = p.sd.observe(addr, page, dst)
	if len(dst)-start <= 1 {
		return dst
	}
	// Deduplicate the candidates proposed this observation, keeping the
	// first occurrence of each line (the same order the map-based dedup
	// produced: membership decided duplicates, iteration order never
	// mattered).
	p.seen = p.seen[:0]
	out := dst[:start]
	for _, a := range dst[start:] {
		l := p.g.LineOf(a)
		dup := false
		for _, s := range p.seen {
			if s == l {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		p.seen = append(p.seen, l)
		out = append(out, a)
	}
	return out
}
