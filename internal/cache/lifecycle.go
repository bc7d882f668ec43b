// State lifecycle for caches and replacement policies (see DESIGN.md "State
// lifecycle"): Clone produces a deep, independently evolving copy of a cache
// and its policy, and RRIP's Reset reinitializes it in place to the state a
// fresh construction with the same seed would produce (warm replay reseeds
// the LLC policy of a cloned snapshot this way). The lifecycle analyzer
// checks that both cover every field.

package cache

// ---------------------------------------------------------------- LRU

// Clone implements Policy.
func (p *LRU) Clone() Policy {
	return &LRU{
		ways:  p.ways,
		stamp: append([]uint32(nil), p.stamp...),
		clock: append([]uint32(nil), p.clock...),
	}
}

// ---------------------------------------------------------------- Random

// Clone implements Policy.
func (p *Random) Clone() Policy { return &Random{ways: p.ways, x: p.x.Clone()} }

// ---------------------------------------------------------------- TreePLRU

// Clone implements Policy. The setM/clrM/vict tables are pure functions of
// the geometry, immutable after Attach and safely shared between clones;
// only the per-set tree words are copied.
func (p *TreePLRU) Clone() Policy {
	c := *p
	c.bits = append([]uint32(nil), p.bits...)
	return &c
}

// ---------------------------------------------------------------- RRIP

// Reset reinitializes the policy in place to the state a fresh
// construction with seed (followed by the same Attach) would produce: ages
// return to maxAge (the fresh-Attach state), the victim scan pointers and
// the DRRIP selector rewind, and the insertion RNG is reseeded. The
// configuration knobs (mode, hit behaviour, PrefetchDistant, DistantFrac32)
// are construction-time settings and are preserved, matching a fresh
// NewRRIP with the same post-construction adjustments.
func (p *RRIP) Reset(seed uint64) {
	for i := range p.ptr {
		p.ptr[i] = 0
	}
	if p.agePk != nil {
		full := allAges(p.ways, maxAge)
		for i := range p.agePk {
			p.agePk[i] = full
		}
	}
	for i := range p.age {
		p.age[i] = maxAge
	}
	p.x.Reseed(seed)
	p.psel = 0
}

// Clone implements Policy.
func (p *RRIP) Clone() Policy {
	c := *p
	c.x = p.x.Clone()
	if p.agePk != nil {
		c.agePk = append([]uint64(nil), p.agePk...)
	}
	if p.age != nil {
		c.age = append([]uint8(nil), p.age...)
	}
	c.ptr = append([]uint16(nil), p.ptr...)
	return &c
}

// ---------------------------------------------------------------- Cache

// Clone returns a deep copy of the cache (tags, hints, occupancy, stats,
// quota bookkeeping and policy state) that evolves independently of the
// receiver.
func (c *Cache) Clone() *Cache {
	n := &Cache{
		sets:    c.sets,
		ways:    c.ways,
		setMask: c.setMask,
		tags:    append([]uint32(nil), c.tags...),
		mru:     append([]int32(nil), c.mru...),
		setOcc:  append([]uint16(nil), c.setOcc...),
		Stats:   c.Stats,
		pol:     c.pol.Clone(),
	}
	switch p := n.pol.(type) {
	case *RRIP:
		n.kind, n.rrip = polRRIP, p
	case *TreePLRU:
		n.kind, n.plru = polPLRU, p
	}
	if c.quota != nil {
		n.quota = c.quota.clone()
	}
	return n
}

// clone returns an independent deep copy of the quota bookkeeping.
func (q *quotaState) clone() *quotaState {
	return &quotaState{
		domains: q.domains,
		owner:   append([]uint8(nil), q.owner...),
		occ:     append([]uint16(nil), q.occ...),
		budget:  append([]uint16(nil), q.budget...),
	}
}
