// State lifecycle for caches and replacement policies (see DESIGN.md "State
// lifecycle"): Clone produces a deep, independently evolving copy of a cache
// and its policy, and a policy's Reset reinitializes it in place to the state
// a fresh construction with the same seed would produce (warm replay reseeds
// the LLC policy of a cloned snapshot this way). The lifecycle analyzer
// checks that both cover every field.

package cache

import "fmt"

// Lifecycle is implemented by replacement policies that support in-place
// reseeding and deep copying. All stock policies implement it; a custom
// ablation policy that does not makes its cache's Clone fail.
type Lifecycle interface {
	// Reset reinitializes the policy in place to the state a fresh
	// construction with seed (followed by the same Attach) would produce.
	// Policies without random decisions ignore the seed.
	Reset(seed uint64)
	// Clone returns a deep copy evolving independently of the receiver.
	Clone() Policy
}

// ---------------------------------------------------------------- LRU

// Reset implements Lifecycle. LRU has no random decisions; seed is ignored.
func (p *LRU) Reset(uint64) {
	for i := range p.stamp {
		p.stamp[i] = 0
	}
	for i := range p.clock {
		p.clock[i] = 0
	}
}

// Clone implements Lifecycle.
func (p *LRU) Clone() Policy {
	return &LRU{
		ways:  p.ways,
		stamp: append([]uint32(nil), p.stamp...),
		clock: append([]uint32(nil), p.clock...),
	}
}

// ---------------------------------------------------------------- Random

// Reset implements Lifecycle.
func (p *Random) Reset(seed uint64) { p.x.Reseed(seed) }

// Clone implements Lifecycle.
func (p *Random) Clone() Policy { return &Random{ways: p.ways, x: p.x.Clone()} }

// ---------------------------------------------------------------- NRU

// Reset implements Lifecycle. NRU has no random decisions; seed is ignored.
func (p *NRU) Reset(uint64) {
	for i := range p.ref {
		p.ref[i] = false
	}
	for i := range p.ptr {
		p.ptr[i] = 0
	}
}

// Clone implements Lifecycle.
func (p *NRU) Clone() Policy {
	return &NRU{
		ways: p.ways,
		ref:  append([]bool(nil), p.ref...),
		ptr:  append([]uint16(nil), p.ptr...),
	}
}

// ---------------------------------------------------------------- TreePLRU

// Reset implements Lifecycle: a fresh Attach leaves every tree word zero.
// The per-way mask pairs and the victim lookup table are pure functions of
// the geometry, immutable after Attach, so they are left in place (and
// shared by Clone below).
func (p *TreePLRU) Reset(uint64) {
	for i := range p.bits {
		p.bits[i] = 0
	}
}

// Clone implements Lifecycle. The setM/clrM/vict tables are immutable after
// Attach and safely shared between clones; only the per-set tree words are
// copied.
func (p *TreePLRU) Clone() Policy {
	c := *p
	c.bits = append([]uint32(nil), p.bits...)
	return &c
}

// ---------------------------------------------------------------- RRIP

// Reset implements Lifecycle: ages return to maxAge (the fresh-Attach
// state), the victim scan pointers and the DRRIP selector rewind, and the
// insertion RNG is reseeded. The configuration knobs (mode, hit behaviour,
// PrefetchDistant, DistantFrac32) are construction-time settings and are
// preserved, matching a fresh NewRRIP with the same post-construction
// adjustments.
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

// Clone implements Lifecycle.
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
// receiver. It fails when the attached policy lacks the lifecycle.
func (c *Cache) Clone() (*Cache, error) {
	lc, ok := c.pol.(Lifecycle)
	if !ok {
		return nil, fmt.Errorf("cache: policy %s does not implement the state lifecycle", c.pol.Name())
	}
	n := &Cache{
		sets:     c.sets,
		ways:     c.ways,
		setMask:  c.setMask,
		tags:     append([]uint32(nil), c.tags...),
		mru:      append([]int32(nil), c.mru...),
		setOcc:   append([]uint16(nil), c.setOcc...),
		occupied: c.occupied,
		Stats:    c.Stats,
		pol:      lc.Clone(),
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
	return n, nil
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
