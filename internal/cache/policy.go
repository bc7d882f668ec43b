// Replacement policies. The RRIP family keeps a small per-line age
// ("re-reference prediction value"); a line is evicted when its age reaches
// the maximum (3 for 2-bit ages). Hits rejuvenate a line; when no line is at
// the maximum age, all ages in the set are incremented until one is
// (Jaleel et al., ISCA 2010; observed on Intel LLCs by Briongos et al.).
package cache

import (
	"fmt"
	"math/bits"

	"streamline/internal/rng"
)

// Policy is the replacement-policy hook interface used by Cache. All methods
// are called with valid set/way indices. Implementations must be allocation
// free after Attach.
type Policy interface {
	// Attach sizes the policy's metadata for a sets x ways cache.
	Attach(sets, ways int)
	// OnHit is called when a lookup hits way w of set s.
	OnHit(s, w int)
	// OnMiss is called when a lookup misses in set s (before any fill).
	OnMiss(s int)
	// OnInsert is called after a new line is placed in way w of set s.
	OnInsert(s, w int)
	// Victim selects the way to evict from a full set s. It may mutate
	// policy metadata (e.g. RRIP aging).
	Victim(s int) int
	// OnInvalidate is called when way w of set s is invalidated.
	OnInvalidate(s, w int)
	// Clone returns a deep copy evolving independently of the receiver.
	Clone() Policy
}

// NewNamed builds an LLC replacement policy by name, so a configuration can
// select one by value: "skylake" (NewSkylakeLLC), "srrip", "brrip", "drrip",
// "lru" and "random". seed drives the policy's random choices, where it
// makes any.
func NewNamed(name string, seed uint64) (Policy, error) {
	switch name {
	case "skylake":
		return NewSkylakeLLC(seed), nil
	case "srrip":
		return NewRRIP(SRRIP, seed), nil
	case "brrip":
		return NewRRIP(BRRIP, seed), nil
	case "drrip":
		return NewRRIP(DRRIP, seed), nil
	case "lru":
		return NewLRU(), nil
	case "random":
		return NewRandom(seed), nil
	}
	return nil, fmt.Errorf("cache: unknown replacement policy %q", name)
}

// PrefetchAware is implemented by policies that insert prefetched lines with
// different metadata than demand fills (Intel inserts prefetches at a more
// distant age).
type PrefetchAware interface {
	OnInsertPrefetch(s, w int)
}

// ---------------------------------------------------------------- LRU

// LRU is a true least-recently-used policy (8-bit recency stamps per line,
// compacted on overflow).
type LRU struct {
	ways  int      //detlint:lifecycle-skip associativity fixed by Attach, identical across the lifecycle
	stamp []uint32 // flat recency; larger = more recent
	clock []uint32 // per-set logical clock
}

// NewLRU returns a true-LRU policy.
func NewLRU() *LRU { return &LRU{} }

// Attach implements Policy.
func (p *LRU) Attach(sets, ways int) {
	p.ways = ways
	p.stamp = make([]uint32, sets*ways)
	p.clock = make([]uint32, sets)
}

func (p *LRU) touch(s, w int) {
	p.clock[s]++
	p.stamp[s*p.ways+w] = p.clock[s]
}

// OnHit implements Policy.
func (p *LRU) OnHit(s, w int) { p.touch(s, w) }

// OnMiss implements Policy.
func (p *LRU) OnMiss(int) {}

// OnInsert implements Policy.
func (p *LRU) OnInsert(s, w int) { p.touch(s, w) }

// Victim implements Policy.
func (p *LRU) Victim(s int) int {
	base := s * p.ways
	best, bestStamp := 0, p.stamp[base]
	for w := 1; w < p.ways; w++ {
		if p.stamp[base+w] < bestStamp {
			best, bestStamp = w, p.stamp[base+w]
		}
	}
	return best
}

// OnInvalidate implements Policy.
func (p *LRU) OnInvalidate(s, w int) { p.stamp[s*p.ways+w] = 0 }

// ---------------------------------------------------------------- Random

// Random evicts a uniformly random way; a classic noise-adding mitigation
// discussed in the paper's Section 7.
type Random struct {
	ways int //detlint:lifecycle-skip associativity fixed by Attach, identical across the lifecycle
	x    *rng.Xoshiro
}

// NewRandom returns a random-replacement policy seeded deterministically.
func NewRandom(seed uint64) *Random { return &Random{x: rng.New(seed)} }

// Attach implements Policy.
func (p *Random) Attach(sets, ways int) { p.ways = ways }

// OnHit implements Policy.
func (p *Random) OnHit(int, int) {}

// OnMiss implements Policy.
func (p *Random) OnMiss(int) {}

// OnInsert implements Policy.
func (p *Random) OnInsert(int, int) {}

// Victim implements Policy.
func (p *Random) Victim(int) int { return p.x.Intn(p.ways) }

// OnInvalidate implements Policy.
func (p *Random) OnInvalidate(int, int) {}

// ---------------------------------------------------------------- TreePLRU

// TreePLRU is the binary-tree pseudo-LRU used in many L1/L2 designs. Ways
// must be a power of two (at most 32: one packed word per set).
//
// Each set's ways-1 tree bits live in one uint32 (bit i = tree node i, set
// when the next victim is in that node's right subtree), which collapses
// the two hot operations: touch ORs and clears two per-way masks computed
// at Attach, and Victim is one lookup in a 2^(ways-1)-entry table mapping
// the packed bits straight to the victim way (tables this size are tiny
// for the private-cache shapes: 128 entries for 8 ways). The tables are
// filled by running the reference tree walk once per input, so the packed
// forms are identical-by-construction to the walk.
type TreePLRU struct {
	ways   int      //detlint:lifecycle-skip associativity fixed by Attach, identical across the lifecycle
	levels int      //detlint:lifecycle-skip log2(ways): derived geometry fixed by Attach
	bits   []uint32 // one packed tree per set
	setM   []uint32 //detlint:lifecycle-skip way->mask table, immutable after Attach; clones share it
	clrM   []uint32 //detlint:lifecycle-skip way->mask table, immutable after Attach; clones share it
	vict   []uint8  //detlint:lifecycle-skip packed bits -> victim table, immutable after Attach; clones share it
}

// NewTreePLRU returns a tree-PLRU policy.
func NewTreePLRU() *TreePLRU { return &TreePLRU{} }

// Attach implements Policy.
func (p *TreePLRU) Attach(sets, ways int) {
	if ways&(ways-1) != 0 {
		panic("cache: TreePLRU requires power-of-two associativity")
	}
	if ways > 32 {
		panic("cache: TreePLRU supports at most 32 ways")
	}
	p.ways = ways
	p.levels = bits.Len(uint(ways)) - 1
	p.bits = make([]uint32, sets)
	// The tree path for way w is exactly w's bits MSB-first: bit 0 means
	// the left half, so touch marks that node "next victim on the right"
	// (tree bit set) and descends left.
	p.setM = make([]uint32, ways)
	p.clrM = make([]uint32, ways)
	for w := 0; w < ways; w++ {
		node := 0
		for shift := p.levels - 1; shift >= 0; shift-- {
			bit := (w >> uint(shift)) & 1
			if bit == 0 {
				p.setM[w] |= 1 << uint(node)
			} else {
				p.clrM[w] |= 1 << uint(node)
			}
			node = 2*node + 1 + bit
		}
	}
	if ways <= 16 {
		p.vict = make([]uint8, 1<<uint(ways-1))
		for m := range p.vict {
			p.vict[m] = uint8(p.walkVictim(uint32(m)))
		}
	}
}

// walkVictim is the reference traversal: follow the packed tree bits,
// accumulating the victim way's bits MSB-first (the inverse of touch).
//
//detlint:hotpath
func (p *TreePLRU) walkVictim(tree uint32) int {
	node, w := 0, 0
	for i := 0; i < p.levels; i++ {
		if tree&(1<<uint(node)) != 0 {
			node = 2*node + 2
			w = w<<1 | 1
		} else {
			node = 2*node + 1
			w <<= 1
		}
	}
	return w
}

// touch flips tree bits away from way w so the traversal next points
// elsewhere.
//
//detlint:hotpath
func (p *TreePLRU) touch(s, w int) {
	p.bits[s] = (p.bits[s] | p.setM[w]) &^ p.clrM[w]
}

// OnHit implements Policy.
//
//detlint:hotpath
func (p *TreePLRU) OnHit(s, w int) { p.touch(s, w) }

// OnMiss implements Policy.
func (p *TreePLRU) OnMiss(int) {}

// OnInsert implements Policy.
//
//detlint:hotpath
func (p *TreePLRU) OnInsert(s, w int) { p.touch(s, w) }

// Victim implements Policy.
//
//detlint:hotpath
func (p *TreePLRU) Victim(s int) int {
	if p.vict != nil {
		return int(p.vict[p.bits[s]])
	}
	return p.walkVictim(p.bits[s])
}

// OnInvalidate implements Policy.
//
//detlint:hotpath
func (p *TreePLRU) OnInvalidate(int, int) {}

// ---------------------------------------------------------------- RRIP

const maxAge = 3 // 2-bit ages

// RRIPMode selects the insertion behaviour of an RRIP policy.
type RRIPMode int

// RRIP insertion modes.
const (
	// SRRIP inserts every line at age maxAge-1 (long re-reference).
	SRRIP RRIPMode = iota
	// BRRIP inserts at maxAge except for 1-in-32 lines at maxAge-1
	// (thrash resistance).
	BRRIP
	// DRRIP set-duels SRRIP against BRRIP with a PSEL counter and uses
	// the winner in follower sets. This approximates the adaptive
	// policies observed on Intel server parts.
	DRRIP
)

// RRIP implements the re-reference interval prediction family with 2-bit
// ages, hit-decrement (as reverse engineered on Skylake: hits step the age
// toward zero), and rotating victim scan.
type RRIP struct {
	mode RRIPMode //detlint:lifecycle-skip insertion-mode configuration fixed at construction
	ways int      //detlint:lifecycle-skip associativity fixed by Attach, identical across the lifecycle
	sets int      //detlint:lifecycle-skip set count fixed by Attach, identical across the lifecycle
	// agePk packs a set's 2-bit ages into one word (2 bits per way, ways
	// <= 32 — every modelled machine). One register then holds the whole
	// set during the victim scan, the aging round is a single masked add
	// (no field can carry: aging only runs while every age is below
	// maxAge), and the array is a quarter the size of the byte-per-way
	// layout — on an 8192-set LLC it drops from 128KB to 64KB, removing
	// one cold host cache line from every simulated LLC access. age is
	// the byte-per-way fallback for wider ablation caches.
	agePk     []uint64
	incMask   uint64 //detlint:lifecycle-skip 0b01 in every used field: derived from ways at Attach, immutable
	age       []uint8
	ptr       []uint16 // per-set scan start; rotation avoids pathological way reuse
	x         *rng.Xoshiro
	psel      int  // DRRIP selector: positive favours SRRIP
	pselMax   int  //detlint:lifecycle-skip saturation bound derived from sets at Attach, immutable
	hitToZero bool //detlint:lifecycle-skip hit-promotion configuration fixed at construction
	// PrefetchDistant inserts prefetched lines at maxAge, making them the
	// next victims unless demanded (Intel-like).
	PrefetchDistant bool //detlint:lifecycle-skip insertion-policy configuration chosen at construction, not runtime state
	// DistantFrac32 is the per-32 fraction of SRRIP-mode demand fills
	// inserted at the distant age anyway (0 = pure SRRIP). Real Intel
	// QLRU variants are not perfectly scan-ordered; a nonzero fraction
	// reproduces the residual premature-eviction rate the paper measures.
	DistantFrac32 int //detlint:lifecycle-skip insertion-policy configuration chosen at construction, not runtime state
}

// NewRRIP returns an RRIP policy in the given mode, seeded for its
// (deterministic) bimodal insertion choices.
func NewRRIP(mode RRIPMode, seed uint64) *RRIP {
	return &RRIP{mode: mode, x: rng.New(seed), pselMax: 1023, PrefetchDistant: true}
}

// NewSkylakeLLC returns the default LLC policy used in the Streamline
// experiments: SRRIP-style quad-age LRU with hit-decrement, matching the
// qualitative behaviour reverse engineered on Skylake client LLCs
// (RELOAD+REFRESH observed fixed QLRU variants there; the adaptive DRRIP
// mode is available for ablation and for modelling server parts).
func NewSkylakeLLC(seed uint64) *RRIP {
	p := NewRRIP(SRRIP, seed)
	p.DistantFrac32 = 3
	return p
}

// Attach implements Policy.
func (p *RRIP) Attach(sets, ways int) {
	p.sets = sets
	p.ways = ways
	p.ptr = make([]uint16, sets)
	if ways <= 32 {
		p.agePk = make([]uint64, sets)
		full := allAges(ways, maxAge)
		for i := range p.agePk {
			p.agePk[i] = full
		}
		p.incMask = allAges(ways, 1)
		return
	}
	p.age = make([]uint8, sets*ways)
	for i := range p.age {
		p.age[i] = maxAge
	}
}

// allAges returns a packed age word holding v in every one of ways fields.
func allAges(ways int, v uint64) uint64 {
	var w uint64
	for i := 0; i < ways; i++ {
		w |= v << (2 * i)
	}
	return w
}

// leader classifies a set for DRRIP dueling: 0 = SRRIP leader, 1 = BRRIP
// leader, -1 = follower. One leader pair per 64 sets.
//
//detlint:hotpath
func (p *RRIP) leader(s int) int {
	switch s % 64 {
	case 0:
		return 0
	case 32:
		return 1
	default:
		return -1
	}
}

// OnHit implements Policy.
//
//detlint:hotpath
func (p *RRIP) OnHit(s, w int) {
	if p.agePk != nil {
		sh := uint(2 * w)
		word := p.agePk[s]
		if p.hitToZero {
			p.agePk[s] = word &^ (3 << sh)
			return
		}
		if word>>sh&3 > 0 {
			p.agePk[s] = word - 1<<sh
		}
		return
	}
	i := s*p.ways + w
	if p.hitToZero {
		p.age[i] = 0
		return
	}
	if p.age[i] > 0 {
		p.age[i]--
	}
}

// OnMiss implements Policy: DRRIP leaders steer the PSEL counter.
//
//detlint:hotpath
func (p *RRIP) OnMiss(s int) {
	if p.mode != DRRIP {
		return
	}
	switch p.leader(s) {
	case 0: // miss in an SRRIP leader: vote for BRRIP
		if p.psel > -p.pselMax {
			p.psel--
		}
	case 1: // miss in a BRRIP leader: vote for SRRIP
		if p.psel < p.pselMax {
			p.psel++
		}
	}
}

// insertAge picks the insertion age for a demand fill in set s.
//
//detlint:hotpath
func (p *RRIP) insertAge(s int) uint8 {
	mode := p.mode
	if mode == DRRIP {
		switch p.leader(s) {
		case 0:
			mode = SRRIP
		case 1:
			mode = BRRIP
		default:
			if p.psel >= 0 {
				mode = SRRIP
			} else {
				mode = BRRIP
			}
		}
	}
	if mode == SRRIP {
		if p.DistantFrac32 > 0 && p.x.Intn(32) < p.DistantFrac32 {
			return maxAge
		}
		return maxAge - 1
	}
	// BRRIP: mostly distant.
	if p.x.Intn(32) == 0 {
		return maxAge - 1
	}
	return maxAge
}

// setAge writes one line's age in whichever layout is attached.
//
//detlint:hotpath
func (p *RRIP) setAge(s, w int, a uint8) {
	if p.agePk != nil {
		sh := uint(2 * w)
		p.agePk[s] = p.agePk[s]&^(3<<sh) | uint64(a)<<sh
		return
	}
	p.age[s*p.ways+w] = a
}

// OnInsert implements Policy.
//
//detlint:hotpath
func (p *RRIP) OnInsert(s, w int) { p.setAge(s, w, p.insertAge(s)) }

// OnInsertPrefetch implements PrefetchAware.
//
//detlint:hotpath
func (p *RRIP) OnInsertPrefetch(s, w int) {
	if p.PrefetchDistant {
		p.setAge(s, w, maxAge)
		return
	}
	p.OnInsert(s, w)
}

// Victim implements Policy: find an age-3 line scanning from the rotating
// pointer, incrementing all ages until one exists. The byte layout scans
// and wraps with a compare-and-reset rather than a modulo; the packed
// layout computes the same answer in closed form.
//
//detlint:hotpath
func (p *RRIP) Victim(s int) int {
	if p.agePk != nil {
		// Packed layout: a field is at maxAge when both its bits are set.
		// If none is, a scan loop would age every line until the oldest
		// reached maxAge: (3 - oldest) rounds of one incMask add each, and
		// no field can carry because every age is below maxAge. One add of
		// the summed rounds leaves the same word. The victim is the first max-age way
		// at or after the rotating pointer, wrapping to way 0.
		word := p.agePk[s]
		inc := p.incMask
		old := word & (word >> 1) & inc
		if old == 0 {
			switch {
			case word>>1&inc != 0: // oldest age 2
				word += inc
			case word&inc != 0: // oldest age 1
				word += 2 * inc
			default:
				word += 3 * inc
			}
			p.agePk[s] = word
			old = word & (word >> 1) & inc
		}
		w := int(p.ptr[s])
		if ahead := old >> (2 * uint(w)); ahead != 0 {
			w += bits.TrailingZeros64(ahead) / 2
		} else {
			w = bits.TrailingZeros64(old) / 2
		}
		next := w + 1
		if next == p.ways {
			next = 0
		}
		p.ptr[s] = uint16(next)
		return w
	}
	base := s * p.ways
	for {
		w := int(p.ptr[s])
		for i := 0; i < p.ways; i++ {
			if p.age[base+w] == maxAge {
				next := w + 1
				if next == p.ways {
					next = 0
				}
				p.ptr[s] = uint16(next)
				return w
			}
			w++
			if w == p.ways {
				w = 0
			}
		}
		for w := 0; w < p.ways; w++ {
			if p.age[base+w] < maxAge {
				p.age[base+w]++
			}
		}
	}
}

// OnInvalidate implements Policy.
//
//detlint:hotpath
func (p *RRIP) OnInvalidate(s, w int) { p.setAge(s, w, maxAge) }

// AgeOf exposes a line's current age for tests and diagnostics.
//
//detlint:hotpath
func (p *RRIP) AgeOf(s, w int) uint8 {
	if p.agePk != nil {
		return uint8(p.agePk[s] >> (2 * uint(w)) & 3)
	}
	return p.age[s*p.ways+w]
}
