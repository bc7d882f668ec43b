// CacheBar-style per-domain way accounting (Zhou, Reiter, Zhang: "A
// Software Approach to Defeating Side Channels in Last-Level Caches").
//
// Unlike the static DAWG-style partitioning in hier (separate Cache values
// per trust domain), quotas keep one shared cache but bound how many ways of
// each set a domain may occupy: every valid way remembers the domain that
// filled it, and a fill by a domain at its budget evicts one of that
// domain's own lines instead of another tenant's. The budgets are soft
// state — hier's quota manager rebalances them periodically from demand —
// so the cache only enforces whatever SetWayBudgets last installed.
//
// The optional copy-on-access mode models CacheBar's cacheability
// management for shared pages: a hit on a line owned by another domain is
// denied (served at memory latency by the caller) and ownership transfers
// to the accessor, as if the accessor had faulted in its own copy. A single
// way stands in for both "copies" — the simulator only needs presence bits
// and the denial latency, not duplicate data — which is exactly the
// cross-domain signal deprivation the defense is after.

package cache

import (
	"fmt"
	"math/bits"

	"streamline/internal/mem"
)

// quotaState is the per-cache quota bookkeeping, live iff the quota pointer
// on Cache is non-nil. All slices are flat and fixed-size after EnableQuota,
// so the access path stays allocation-free.
type quotaState struct {
	domains int
	owner   []uint8  // [sets*ways] domain that filled each way; meaningful only where tags is valid
	occ     []uint16 // [sets*domains] per-set valid-line count per domain
	budget  []uint16 // [domains] current per-set way budget
}

// maxQuotaDomains bounds the domain count so owners fit the uint8 store.
const maxQuotaDomains = 256

// EnableQuota turns on per-domain way accounting with the given per-set way
// budget for each domain. It must be called on an empty cache (enable
// quotas at construction time, before any traffic) and at most once.
// Budgets are soft caps per set: a domain at (or over) its budget
// self-evicts on fill rather than growing. Shrinking a budget below a
// domain's current occupancy (SetWayBudgets, or a copy-on-access ownership
// transfer) stops the domain's growth immediately; the surplus itself
// drains only through invalidations, never by forced eviction.
func (c *Cache) EnableQuota(budgets []int) error {
	if c.quota != nil {
		return fmt.Errorf("cache: quota already enabled")
	}
	for _, n := range c.setOcc {
		if n != 0 {
			return fmt.Errorf("cache: quota must be enabled on an empty cache")
		}
	}
	if len(budgets) == 0 {
		return fmt.Errorf("cache: quota needs at least one domain")
	}
	if len(budgets) > maxQuotaDomains {
		return fmt.Errorf("cache: %d quota domains exceed the maximum %d", len(budgets), maxQuotaDomains)
	}
	for d, b := range budgets {
		if b < 1 || b > c.ways {
			return fmt.Errorf("cache: domain %d way budget %d outside [1,%d]", d, b, c.ways)
		}
	}
	q := &quotaState{
		domains: len(budgets),
		owner:   make([]uint8, c.sets*c.ways),
		occ:     make([]uint16, c.sets*len(budgets)),
		budget:  make([]uint16, len(budgets)),
	}
	for d, b := range budgets {
		q.budget[d] = uint16(b)
	}
	c.quota = q
	return nil
}

// QuotaDomains returns the number of quota domains (0 when quotas are off).
func (c *Cache) QuotaDomains() int {
	if c.quota == nil {
		return 0
	}
	return c.quota.domains
}

// SetWayBudgets installs new per-set way budgets (one per domain), the
// rebalancing entry point. Budgets take effect on subsequent fills only;
// resident lines are never evicted eagerly.
func (c *Cache) SetWayBudgets(budgets []uint16) {
	q := c.quota
	if q == nil {
		panic("cache: SetWayBudgets on a cache without quotas")
	}
	if len(budgets) != q.domains {
		panic(fmt.Sprintf("cache: %d budgets for %d quota domains", len(budgets), q.domains))
	}
	for d, b := range budgets {
		if b < 1 || int(b) > c.ways {
			panic(fmt.Sprintf("cache: domain %d way budget %d outside [1,%d]", d, b, c.ways))
		}
	}
	copy(q.budget, budgets)
}

// WayBudget returns domain dom's current per-set way budget.
func (c *Cache) WayBudget(dom int) int {
	return int(c.quota.budget[dom])
}

// AccessOwned is Access for quota-managed caches: the lookup is attributed
// to domain dom, fills respect dom's way budget, and — in copy-on-access
// mode — a hit on another domain's line is denied. denied reports that
// case: the line was present but the hit was refused, so the caller serves
// the access at memory latency (the Result then reports a miss on the way
// that now holds dom's copy).
//
//detlint:hotpath
func (c *Cache) AccessOwned(l mem.Line, dom uint8, copyOnAccess bool) (res Result, denied bool) {
	q := c.quota
	if q == nil {
		panic("cache: AccessOwned on a cache without quotas")
	}
	if int(dom) >= q.domains {
		panic(fmt.Sprintf("cache: quota domain %d out of range [0,%d)", dom, q.domains))
	}
	set := c.SetOf(l)
	base := set * c.ways
	if w := c.find(set, base, l); w >= 0 {
		if own := q.owner[base+w]; copyOnAccess && own != dom {
			// Cacheability management: the cross-domain hit is refused and
			// dom gets its own copy in the same way. Ownership (and the
			// occupancy accounting) transfers; replacement metadata sees a
			// fresh insertion, as a newly copied line would. The transfer
			// may push dom past its budget — the next fill self-evicts.
			c.Stats.Misses++
			c.missMeta(set)
			q.occ[set*q.domains+int(own)]--
			q.occ[set*q.domains+int(dom)]++
			q.owner[base+w] = dom
			c.insertMeta(set, w, false)
			return Result{Way: w}, true
		}
		c.Stats.Hits++
		switch c.kind {
		case polRRIP:
			c.rrip.OnHit(set, w)
		case polPLRU:
			c.plru.OnHit(set, w)
		default:
			c.pol.OnHit(set, w)
		}
		return Result{Hit: true, Way: w}, false
	}
	c.Stats.Misses++
	c.missMeta(set)
	return c.fillOwned(set, base, l, dom, false), false
}

// InstallPrefetchOwned is InstallPrefetch for quota-managed caches: the
// fill (if any) is attributed to domain dom and respects its budget. A
// present line is a no-op regardless of owner — prefetches never transfer
// ownership, so a predictable prefetcher cannot launder cross-domain
// copies.
//
//detlint:hotpath
func (c *Cache) InstallPrefetchOwned(l mem.Line, dom uint8) Result {
	q := c.quota
	if q == nil {
		panic("cache: InstallPrefetchOwned on a cache without quotas")
	}
	set := c.SetOf(l)
	base := set * c.ways
	if w := c.find(set, base, l); w >= 0 {
		return Result{Hit: true, Way: w}
	}
	c.Stats.Prefetches++
	return c.fillOwned(set, base, l, dom, true)
}

// missMeta dispatches the policy miss hook (shared by the quota paths).
//
//detlint:hotpath
func (c *Cache) missMeta(set int) {
	switch c.kind {
	case polRRIP:
		c.rrip.OnMiss(set)
	case polPLRU:
		// tree-PLRU has no miss hook.
	default:
		c.pol.OnMiss(set)
	}
}

// fillOwned inserts l for domain dom. A domain at (or over) its budget with
// at least one resident line replaces one of its own ways — other tenants'
// occupancy is untouched, the property that denies Prime+Probe its
// cross-domain evictions. Otherwise the normal fill runs (empty way or
// policy-wide victim) and the accounting follows the victim's owner.
//
//detlint:hotpath
func (c *Cache) fillOwned(set, base int, l mem.Line, dom uint8, prefetch bool) Result {
	if uint64(l) >= uint64(invalidTag) {
		panic(fmt.Sprintf("cache: line %#x overflows the 32-bit tag store (simulated physical memory is capped at mem.MaxAddrSpace)", uint64(l)))
	}
	q := c.quota
	qi := set*q.domains + int(dom)
	if int(q.occ[qi]) >= int(q.budget[dom]) && q.occ[qi] > 0 {
		var mask uint64
		for w := 0; w < c.ways; w++ {
			if c.tags[base+w] != invalidTag && q.owner[base+w] == dom {
				mask |= 1 << uint(w)
			}
		}
		w := c.victimAmong(set, mask)
		evicted := mem.Line(c.tags[base+w])
		c.Stats.Evictions++
		c.tags[base+w] = uint32(l)
		c.mru[set] = int32(w)
		c.insertMeta(set, w, prefetch)
		// Owner and occupancy stand: the domain replaced its own line.
		return Result{Way: w, Evicted: evicted, DidEvict: true}
	}
	r := c.fill(set, base, l, prefetch)
	if r.DidEvict {
		q.occ[set*q.domains+int(q.owner[base+r.Way])]--
	}
	q.owner[base+r.Way] = dom
	q.occ[qi]++
	return r
}

// victimAmong picks an eviction victim restricted to the masked ways. For
// the RRIP family it evicts the oldest masked way (ties to the lowest way
// index) — the natural restriction of RRIP's aging order, minus the global
// re-age walk an unrestricted victim search performs when no way has aged
// out (re-aging from a subset scan would skew the other tenants' ages, so
// the masked search settles for the relatively oldest line). Non-RRIP
// policies fall back to the lowest masked way: the quota experiments run on
// the Skylake RRIP LLC, so the ablation policies only need a deterministic
// choice.
//
//detlint:hotpath
func (c *Cache) victimAmong(set int, mask uint64) int {
	if mask == 0 {
		panic("cache: quota victim requested with no owned ways")
	}
	if c.kind == polRRIP {
		best, bestAge := -1, -1
		for m := mask; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			if a := int(c.rrip.AgeOf(set, w)); a > bestAge {
				best, bestAge = w, a
			}
		}
		return best
	}
	return bits.TrailingZeros64(mask)
}
