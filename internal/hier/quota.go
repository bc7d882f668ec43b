package hier

// Dynamic per-tenant way quotas on the shared LLC (CacheBar; Zhou, Reiter,
// Zhang). Where PartitionWays statically splits the LLC into per-domain
// caches (DAWG-style), quotas keep one shared LLC and bound each trust
// domain's per-set occupancy with budgets the quota manager periodically
// rebalances from observed demand: domains missing more get more ways,
// floored so no tenant starves. The enforcement mechanics (ownership
// tracking, self-eviction at budget, copy-on-access denial) live in
// internal/cache; this file owns the policy knobs and the rebalancer.

import (
	"fmt"

	"streamline/internal/cache"
	"streamline/internal/mem"
)

// QuotaConfig enables CacheBar-style dynamic way quotas on the LLC. Trust
// domains come from Options.CoreDomains (nil: one domain per core, as with
// partitioning); quotas and PartitionWays are mutually exclusive.
type QuotaConfig struct {
	// DomainWays optionally fixes each domain's initial per-set way budget
	// (length must equal the domain count). Nil splits the LLC ways evenly,
	// flooring at one way per domain.
	DomainWays []int
	// MinWays floors every domain's budget during rebalancing so a quiet
	// tenant is never starved below it. 0 means 1.
	MinWays int
	// RebalancePeriod is the number of demand LLC lookups between budget
	// rebalances; 0 keeps the initial budgets forever.
	RebalancePeriod int
	// CopyOnAccess enables cacheability management for cross-domain shared
	// lines: a hit on another domain's line is denied (served at memory
	// latency) and the accessor takes its own copy — the mode that blinds
	// shared-memory attacks to each other's cache state.
	CopyOnAccess bool
}

// quotaMgr is the per-hierarchy rebalancer: it counts each domain's demand
// LLC lookups and misses and, every RebalancePeriod lookups, recomputes the
// per-set way budgets proportional to each domain's share of the misses
// (largest-remainder apportionment, floored at MinWays, ties to the lower
// domain index — fully deterministic).
type quotaMgr struct {
	cfg     QuotaConfig //detlint:lifecycle-skip rebalancing configuration fixed at construction
	domains int         //detlint:lifecycle-skip domain count fixed at construction, identical across the lifecycle
	ways    int         //detlint:lifecycle-skip LLC associativity fixed at construction, identical across the lifecycle
	lookups uint64      // demand lookups since the last rebalance
	misses  []uint64    // per-domain misses in the current rebalance window
	budget  []uint16    // current per-set way budgets
	scratch []uint16    //detlint:lifecycle-skip rebalance workspace overwritten before every use; contents never read across calls
	rems    []uint64    //detlint:lifecycle-skip largest-remainder workspace overwritten before every use; contents never read across calls
}

// minWays returns the effective rebalancing floor.
//
//detlint:hotpath
func (q *QuotaConfig) minWays() int {
	if q.MinWays <= 0 {
		return 1
	}
	return q.MinWays
}

// initialBudgets computes and validates the starting per-set budgets for
// nDomains tenants of a ways-associative LLC.
func (q *QuotaConfig) initialBudgets(nDomains, ways int) ([]int, error) {
	min := q.minWays()
	if nDomains*min > ways {
		return nil, fmt.Errorf("hier: %d quota domains x %d min ways exceed LLC associativity %d",
			nDomains, min, ways)
	}
	if q.DomainWays != nil {
		if len(q.DomainWays) != nDomains {
			return nil, fmt.Errorf("hier: %d DomainWays entries for %d quota domains",
				len(q.DomainWays), nDomains)
		}
		for d, w := range q.DomainWays {
			if w < min || w > ways {
				return nil, fmt.Errorf("hier: domain %d way budget %d outside [%d,%d]", d, w, min, ways)
			}
		}
		return append([]int(nil), q.DomainWays...), nil
	}
	even := ways / nDomains
	if even < min {
		even = min
	}
	budgets := make([]int, nDomains)
	for d := range budgets {
		budgets[d] = even
	}
	return budgets, nil
}

func newQuotaMgr(cfg QuotaConfig, budgets []int, ways int) *quotaMgr {
	m := &quotaMgr{
		cfg:     cfg,
		domains: len(budgets),
		ways:    ways,
		misses:  make([]uint64, len(budgets)),
		budget:  make([]uint16, len(budgets)),
		scratch: make([]uint16, len(budgets)),
		rems:    make([]uint64, len(budgets)),
	}
	for d, b := range budgets {
		m.budget[d] = uint16(b)
	}
	return m
}

// noteLookup records one demand LLC lookup by dom and reports whether a
// rebalance just changed the budgets (the caller then pushes them into the
// cache).
//
//detlint:hotpath
func (m *quotaMgr) noteLookup(dom int, miss bool) bool {
	if miss {
		m.misses[dom]++
	}
	if m.cfg.RebalancePeriod <= 0 {
		return false
	}
	m.lookups++
	if m.lookups < uint64(m.cfg.RebalancePeriod) {
		return false
	}
	m.lookups = 0
	return m.rebalance()
}

// rebalance apportions the ways above the per-domain floor proportionally
// to each domain's miss share via the largest-remainder method, then clears
// the miss window. A window with no misses keeps the current budgets.
//
//detlint:hotpath
func (m *quotaMgr) rebalance() bool {
	var total uint64
	for _, v := range m.misses {
		total += v
	}
	if total == 0 {
		return false
	}
	min := m.cfg.minWays()
	free := m.ways - min*m.domains
	next, rems := m.scratch, m.rems
	assigned := 0
	for d := range next {
		ideal := uint64(free) * m.misses[d]
		next[d] = uint16(min + int(ideal/total))
		rems[d] = ideal % total
		assigned += int(ideal / total)
	}
	// Hand the floored-away ways to the largest remainders, one each, ties
	// to the lower domain index. left < domains always (the remainders sum
	// to left*total with each below total), so at least left of them are
	// strictly positive and zeroing an awarded remainder never promotes a
	// zero-remainder domain.
	for left := free - assigned; left > 0; left-- {
		best := 0
		for d := 1; d < len(rems); d++ {
			if rems[d] > rems[best] {
				best = d
			}
		}
		next[best]++
		rems[best] = 0
	}
	changed := false
	for d := range next {
		if next[d] != m.budget[d] {
			changed = true
		}
	}
	copy(m.budget, next)
	for d := range m.misses {
		m.misses[d] = 0
	}
	return changed
}

// accessQuota is accessGeneral's LLC-and-below tail under dynamic way
// quotas: the lookup is attributed to the requesting core's trust domain,
// the rebalancer observes it (pushing fresh budgets into the LLC when a
// rebalance fires), and in copy-on-access mode a cross-domain hit is served
// from memory while the accessor takes ownership of the line.
//
//detlint:hotpath
func (h *Hierarchy) accessQuota(core int, llc *cache.Cache, line mem.Line, a mem.Addr, now uint64, tlbPenalty int) AccessResult {
	if h.rec != nil {
		// The warm log cannot re-feed ownership transfers; quota
		// configurations never take the warm snapshot, so recording just
		// aborts.
		//detlint:allow hotpathalloc -- warmup recording is opt-in instrumentation, nil on measured runs
		h.rec.abort()
	}
	dom := uint8(h.domains[core])
	llcRes, _ := llc.AccessOwned(line, dom, h.quota.cfg.CopyOnAccess)
	if h.quota.noteLookup(int(dom), !llcRes.Hit) {
		llc.SetWayBudgets(h.quota.budget)
	}
	if llcRes.DidEvict {
		// One shared LLC: any core may hold a private copy of the victim.
		h.backInvalidateMask(h.evictMask[core], llcRes.Evicted)
	}
	h.l1[core].Access(line)
	if llcRes.Hit {
		h.count(core, LLC)
		return AccessResult{Latency: h.mach.Lat.LLCHit + tlbPenalty, Level: LLC}
	}
	// Denied cross-domain hits and true misses are both served from memory.
	h.count(core, DRAM)
	return AccessResult{Latency: h.dram.Latency(now, a) + tlbPenalty, Level: DRAM}
}

// clone returns an independent deep copy.
func (m *quotaMgr) clone() *quotaMgr {
	n := *m
	n.misses = append([]uint64(nil), m.misses...)
	n.budget = append([]uint16(nil), m.budget...)
	n.scratch = make([]uint16, len(m.scratch))
	n.rems = make([]uint64, len(m.rems))
	return &n
}
