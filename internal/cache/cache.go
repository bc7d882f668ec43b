// Package cache models a single level of a set-associative cache with
// pluggable replacement policies.
//
// The Streamline attack's error behaviour is dominated by the LLC's
// replacement policy: the paper relies on the reverse-engineered Intel
// policy (2-bit ages per line, RRIP-family; Briongos et al., RELOAD+REFRESH)
// to reason about when sender-installed lines are evicted. This package
// therefore models the RRIP family explicitly (SRRIP, BRRIP, DRRIP with set
// dueling, and a Skylake-flavoured QLRU variant) alongside tree-PLRU for
// the private caches, and classic LRU and random replacement for ablation
// experiments.
//
// The implementation keeps all tag and policy metadata in flat slices and
// performs no allocation on the access path: the channel experiments push
// hundreds of millions of accesses through one Cache value. Three hot-path
// devices keep the per-access cost low (see DESIGN.md "Performance"):
// empty ways are marked by an in-band sentinel tag so a lookup scans a
// single slice, a per-set last-hit-way hint short-circuits the scan for the
// repeated-line accesses the channel generates, and the two policies on the
// simulated machine's own caches (RRIP and tree-PLRU) are dispatched by a
// concrete-type switch instead of through the Policy interface.
package cache

import (
	"fmt"

	"streamline/internal/mem"
)

// invalidTag is the in-band sentinel marking an empty way in Cache.tags.
// Tags are stored as 32-bit truncations of the line number, which is exact
// because mem.Allocator caps the simulated physical address space at
// mem.MaxAddrSpace (256GB): line numbers stay below 2^32, so no real line
// can collide with the sentinel or with another line's truncation. The
// narrow tags matter: a set's tag row is the first thing every lookup
// loads, and at 32 bits a 16-way row is a single host cache line instead
// of two — for a thrashing LLC (8192 sets, 16 ways) the whole array drops
// from 1MB to 512KB, roughly halving the host-side miss traffic of the
// simulator's hottest loop. fill enforces the invariant with a panic.
const invalidTag = ^uint32(0)

// Result describes the outcome of one Access or Install.
type Result struct {
	Hit      bool
	Way      int
	Evicted  mem.Line // valid only if DidEvict
	DidEvict bool
}

// Stats counts cache events since construction.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Flushes    uint64
	Prefetches uint64 // installs marked as prefetches
}

// polKind discriminates the devirtualized replacement policies. The two
// policies that sit on the simulated machine's own caches (RRIP on the LLC,
// tree-PLRU on the private levels) are called through concrete pointers so
// their small hook methods inline into the access path; every other policy
// (the ablation set) goes through the Policy interface as before.
type polKind uint8

const (
	polGeneric polKind = iota
	polRRIP
	polPLRU
)

// Cache is one level of a set-associative cache. Create with New.
type Cache struct {
	sets    int       //detlint:lifecycle-skip geometry fixed at construction, identical across the lifecycle
	ways    int       //detlint:lifecycle-skip geometry fixed at construction, identical across the lifecycle
	setMask uint64    //detlint:lifecycle-skip geometry fixed at construction, identical across the lifecycle
	tags    []uint32  // flat [sets*ways] truncated line numbers; invalidTag marks an empty way
	mru     []int32   // per-set last-hit way hint (always in [0,ways))
	setOcc  []uint16  // per-set valid-line count; ==ways means the fill scan can be skipped
	kind    polKind   //detlint:lifecycle-skip devirtualization tag derived from pol's concrete type, fixed at construction
	rrip    *RRIP     //detlint:lifecycle-skip devirtualization alias of pol (non-nil iff kind == polRRIP); Clone re-derives it from the cloned pol
	plru    *TreePLRU //detlint:lifecycle-skip devirtualization alias of pol (non-nil iff kind == polPLRU); Clone re-derives it from the cloned pol
	pol     Policy
	// quota, when non-nil, tracks per-domain way ownership and budgets
	// (CacheBar-style; see quota.go). All quota bookkeeping hangs off this
	// one pointer so the lifecycle methods and field audits see a single
	// extra field.
	quota *quotaState
	Stats Stats
}

// New builds a cache with the given geometry and replacement policy. The
// number of sets must be a power of two.
func New(sets, ways int, pol Policy) (*Cache, error) {
	if sets <= 0 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d must be a positive power of two", sets)
	}
	if ways <= 0 {
		return nil, fmt.Errorf("cache: ways %d must be positive", ways)
	}
	if pol == nil {
		return nil, fmt.Errorf("cache: nil policy")
	}
	c := &Cache{
		sets:    sets,
		ways:    ways,
		setMask: uint64(sets - 1),
		tags:    make([]uint32, sets*ways),
		mru:     make([]int32, sets),
		setOcc:  make([]uint16, sets),
		pol:     pol,
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	switch p := pol.(type) {
	case *RRIP:
		c.kind, c.rrip = polRRIP, p
	case *TreePLRU:
		c.kind, c.plru = polPLRU, p
	}
	pol.Attach(sets, ways)
	return c, nil
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Policy returns the attached replacement policy.
func (c *Cache) Policy() Policy { return c.pol }

// SetOf returns the set index line l maps to.
//
//detlint:hotpath
func (c *Cache) SetOf(l mem.Line) int { return int(uint64(l) & c.setMask) }

// find locates l in the set starting at base, trying the set's last-hit
// way first. The hint is only a lookup accelerator: a stale hint misses the
// comparison (an empty way holds invalidTag, which equals no real line)
// and the full scan below gives the identical answer.
//
//detlint:hotpath
func (c *Cache) find(set, base int, l mem.Line) int {
	tag := uint32(l)
	tags := c.tags[base : base+c.ways]
	if w := int(c.mru[set]); tags[w] == tag {
		return w
	}
	for w, t := range tags {
		if t == tag {
			c.mru[set] = int32(w)
			return w
		}
	}
	return -1
}

// HintHit and OnHintHit are a hit short-circuit for a caller that expects
// the line at its set's hinted way (the hierarchy's trailing L1 touch after
// an L2 or LLC fill), split in two so the check inlines into the caller (a
// failed check is pure overhead for an access that goes on to Access, so it
// must cost one masked compare, not a function call).
//
// HintHit reports whether l is the line its set's last-hit-way hint points
// at — the case Access serves without scanning — with no side effects.
//
//detlint:hotpath
func (c *Cache) HintHit(l mem.Line) bool {
	set := int(uint64(l) & c.setMask)
	return c.tags[set*c.ways+int(c.mru[set])] == uint32(l)
}

// OnHintHit applies the hit bookkeeping Access would perform for a line
// HintHit just reported present (hit count plus replacement touch). Calling
// it without a true HintHit(l) corrupts the replacement state.
//
//detlint:hotpath
func (c *Cache) OnHintHit(l mem.Line) {
	set := int(uint64(l) & c.setMask)
	w := int(c.mru[set])
	c.Stats.Hits++
	switch c.kind {
	case polRRIP:
		c.rrip.OnHit(set, w)
	case polPLRU:
		c.plru.OnHit(set, w)
	default:
		c.pol.OnHit(set, w)
	}
}

// Probe reports whether l is present, with no side effects on replacement
// state or statistics.
//
//detlint:hotpath
func (c *Cache) Probe(l mem.Line) bool {
	set := c.SetOf(l)
	return c.find(set, set*c.ways, l) >= 0
}

// Access looks up l, updating replacement state. On a miss the line is
// installed, evicting a victim if the set is full. The returned Result
// reports the hit/miss outcome and any eviction.
//
//detlint:hotpath
func (c *Cache) Access(l mem.Line) Result {
	set := c.SetOf(l)
	base := set * c.ways
	if w := c.find(set, base, l); w >= 0 {
		c.Stats.Hits++
		switch c.kind {
		case polRRIP:
			c.rrip.OnHit(set, w)
		case polPLRU:
			c.plru.OnHit(set, w)
		default:
			c.pol.OnHit(set, w)
		}
		return Result{Hit: true, Way: w}
	}
	c.Stats.Misses++
	switch c.kind {
	case polRRIP:
		c.rrip.OnMiss(set)
	case polPLRU:
		// tree-PLRU has no miss hook.
	default:
		c.pol.OnMiss(set)
	}
	if c.quota != nil {
		// Quota-managed caches keep their accounting correct even for
		// callers that do not attribute accesses (warmup walks, eviction-set
		// construction): fills are billed to domain 0. The guard sits on the
		// miss path only — the hit path above is exactly AccessOwned's
		// non-denial hit path, so unattributed hits need no special casing —
		// keeping the per-hit cost of every non-quota cache (all L1s/L2s,
		// and the LLC in every undefended run) unchanged.
		return c.fillOwned(set, base, l, 0, false)
	}
	return c.fill(set, base, l, false)
}

// InstallPrefetch inserts l as a prefetched line (counted separately, and
// policies may choose a different insertion age). A present line is treated
// as a policy hit-less no-op.
//
//detlint:hotpath
func (c *Cache) InstallPrefetch(l mem.Line) Result {
	set := c.SetOf(l)
	base := set * c.ways
	if w := c.find(set, base, l); w >= 0 {
		// Already present: prefetch is a no-op; do not touch ages so a
		// predictable prefetcher cannot refresh the channel's lines.
		return Result{Hit: true, Way: w}
	}
	c.Stats.Prefetches++
	if c.quota != nil {
		// Unattributed prefetch fills bill to domain 0 (see Access).
		return c.fillOwned(set, base, l, 0, true)
	}
	return c.fill(set, base, l, true)
}

// fill inserts l into set, choosing a victim if needed. Full sets — the
// steady state of every long-running experiment — skip the empty-way scan
// via the per-set occupancy count.
//
//detlint:hotpath
func (c *Cache) fill(set, base int, l mem.Line, prefetch bool) Result {
	if uint64(l) >= uint64(invalidTag) {
		panic(fmt.Sprintf("cache: line %#x overflows the 32-bit tag store (simulated physical memory is capped at mem.MaxAddrSpace)", uint64(l)))
	}
	if int(c.setOcc[set]) < c.ways {
		for w, t := range c.tags[base : base+c.ways] {
			if t == invalidTag {
				c.tags[base+w] = uint32(l)
				c.setOcc[set]++
				c.mru[set] = int32(w)
				c.insertMeta(set, w, prefetch)
				return Result{Way: w}
			}
		}
		panic("cache: per-set occupancy count out of sync with tags")
	}
	w := c.victim(set)
	if w < 0 || w >= c.ways {
		panic(fmt.Sprintf("cache: policy %T returned invalid victim way %d", c.pol, w))
	}
	evicted := mem.Line(c.tags[base+w])
	c.Stats.Evictions++
	c.tags[base+w] = uint32(l)
	c.mru[set] = int32(w)
	c.insertMeta(set, w, prefetch)
	return Result{Way: w, Evicted: evicted, DidEvict: true}
}

// victim dispatches Policy.Victim without interface overhead for the two
// hot policies.
//
//detlint:hotpath
func (c *Cache) victim(set int) int {
	switch c.kind {
	case polRRIP:
		return c.rrip.Victim(set)
	case polPLRU:
		return c.plru.Victim(set)
	default:
		return c.pol.Victim(set)
	}
}

//detlint:hotpath
func (c *Cache) insertMeta(set, w int, prefetch bool) {
	switch c.kind {
	case polRRIP:
		if prefetch {
			c.rrip.OnInsertPrefetch(set, w)
		} else {
			c.rrip.OnInsert(set, w)
		}
	case polPLRU:
		// tree-PLRU is not PrefetchAware: demand and prefetch fills touch
		// the tree identically.
		c.plru.OnInsert(set, w)
	default:
		if prefetch {
			if pp, ok := c.pol.(PrefetchAware); ok {
				pp.OnInsertPrefetch(set, w)
				return
			}
		}
		c.pol.OnInsert(set, w)
	}
}

// Flush removes l if present (the clflush model) and reports whether it was
// present.
//
//detlint:hotpath
func (c *Cache) Flush(l mem.Line) bool {
	c.Stats.Flushes++
	return c.Invalidate(l)
}

// Invalidate removes l if present without counting a flush (used for
// inclusive back-invalidation). Reports whether the line was present.
//
//detlint:hotpath
func (c *Cache) Invalidate(l mem.Line) bool {
	set := c.SetOf(l)
	base := set * c.ways
	w := c.find(set, base, l)
	if w < 0 {
		return false
	}
	if q := c.quota; q != nil {
		q.occ[set*q.domains+int(q.owner[base+w])]--
	}
	c.tags[base+w] = invalidTag
	c.setOcc[set]--
	switch c.kind {
	case polRRIP:
		c.rrip.OnInvalidate(set, w)
	case polPLRU:
		// tree-PLRU has no invalidate hook.
	default:
		c.pol.OnInvalidate(set, w)
	}
	return true
}

// LineAt returns the line held in way w of set, and whether that way is
// valid, with no side effects (unlike a lookup, it leaves the last-hit-way
// hint alone).
func (c *Cache) LineAt(set, w int) (mem.Line, bool) {
	t := c.tags[set*c.ways+w]
	return mem.Line(t), t != invalidTag
}
