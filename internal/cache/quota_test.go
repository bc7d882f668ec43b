package cache

import (
	"testing"

	"streamline/internal/mem"
	"streamline/internal/rng"
	"streamline/internal/statetest"
)

// newQuotaCache builds a small quota-managed cache on the Skylake LLC
// policy: 2 domains with the given per-set budgets.
func newQuotaCache(t *testing.T, sets, ways int, budgets []int, seed uint64) *Cache {
	t.Helper()
	c, err := New(sets, ways, NewSkylakeLLC(seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnableQuota(budgets); err != nil {
		t.Fatal(err)
	}
	return c
}

// lineInSet returns the i-th distinct line mapping to the given set.
func lineInSet(c *Cache, set, i int) mem.Line {
	return mem.Line(uint64(set) + uint64(i)*uint64(c.Sets()))
}

func TestEnableQuotaValidation(t *testing.T) {
	c, err := New(16, 4, NewSkylakeLLC(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]int{nil, {}, {0, 2}, {5, 2}, {-1}} {
		if err := c.EnableQuota(bad); err == nil {
			t.Fatalf("EnableQuota(%v) accepted invalid budgets", bad)
		}
	}
	c.Access(1)
	if err := c.EnableQuota([]int{2, 2}); err == nil {
		t.Fatal("EnableQuota accepted a non-empty cache")
	}
	c2 := newQuotaCache(t, 16, 4, []int{2, 2}, 1)
	if err := c2.EnableQuota([]int{2, 2}); err == nil {
		t.Fatal("EnableQuota accepted a second enable")
	}
}

// TestQuotaBudgetEnforcement pins the core CacheBar property: a domain at
// its budget replaces its own lines, leaving the other tenant's occupancy
// untouched.
func TestQuotaBudgetEnforcement(t *testing.T) {
	c := newQuotaCache(t, 4, 4, []int{2, 2}, 7)
	const set = 1
	// Domain 1 takes its two ways first.
	for i := 0; i < 2; i++ {
		c.AccessOwned(lineInSet(c, set, 8+i), 1, false)
	}
	// Domain 0 fills well past its budget of 2.
	for i := 0; i < 6; i++ {
		r, denied := c.AccessOwned(lineInSet(c, set, i), 0, false)
		if denied {
			t.Fatalf("fill %d denied without copy-on-access", i)
		}
		if r.Hit {
			t.Fatalf("fill %d unexpectedly hit", i)
		}
	}
	if got := c.DomainOccupancy(set, 0); got != 2 {
		t.Fatalf("domain 0 occupancy = %d, want its budget 2", got)
	}
	if got := c.DomainOccupancy(set, 1); got != 2 {
		t.Fatalf("domain 1 occupancy = %d, want untouched 2", got)
	}
	// Domain 1's lines must still be resident: domain 0's thrashing was
	// confined to its own ways.
	for i := 0; i < 2; i++ {
		if !c.Probe(lineInSet(c, set, 8+i)) {
			t.Fatalf("domain 1 line %d evicted by domain 0's over-budget fills", i)
		}
	}
}

// TestQuotaCopyOnAccessDeny pins the cacheability-management mode: a
// cross-domain hit is denied and transfers ownership; same-domain hits and
// non-copy-on-access lookups behave normally.
func TestQuotaCopyOnAccessDeny(t *testing.T) {
	c := newQuotaCache(t, 4, 4, []int{2, 2}, 7)
	l := lineInSet(c, 2, 0)
	c.AccessOwned(l, 0, true) // domain 0 faults the line in

	if r, denied := c.AccessOwned(l, 0, true); !r.Hit || denied {
		t.Fatalf("same-domain re-access: hit=%v denied=%v, want hit", r.Hit, denied)
	}
	r, denied := c.AccessOwned(l, 1, true)
	if r.Hit || !denied {
		t.Fatalf("cross-domain access: hit=%v denied=%v, want denied miss", r.Hit, denied)
	}
	if own, ok := c.OwnerOf(l); !ok || own != 1 {
		t.Fatalf("owner after denial = (%d,%v), want domain 1", own, ok)
	}
	if got := c.DomainOccupancy(2, 0); got != 0 {
		t.Fatalf("domain 0 occupancy after transfer = %d, want 0", got)
	}
	if r, denied := c.AccessOwned(l, 1, true); !r.Hit || denied {
		t.Fatalf("new owner re-access: hit=%v denied=%v, want hit", r.Hit, denied)
	}
	// Without copy-on-access the cross-domain hit is served and ownership
	// stays put.
	if r, denied := c.AccessOwned(l, 0, false); !r.Hit || denied {
		t.Fatalf("plain cross-domain access: hit=%v denied=%v, want hit", r.Hit, denied)
	}
	if own, _ := c.OwnerOf(l); own != 1 {
		t.Fatalf("plain access moved ownership to %d", own)
	}
}

func TestQuotaInvalidateAccounting(t *testing.T) {
	c := newQuotaCache(t, 4, 4, []int{2, 2}, 7)
	l := lineInSet(c, 0, 0)
	c.AccessOwned(l, 1, false)
	if got := c.DomainOccupancy(0, 1); got != 1 {
		t.Fatalf("occupancy after fill = %d, want 1", got)
	}
	if !c.Flush(l) {
		t.Fatal("flush missed a resident line")
	}
	if got := c.DomainOccupancy(0, 1); got != 0 {
		t.Fatalf("occupancy after flush = %d, want 0", got)
	}
}

func TestQuotaPrefetchOwnership(t *testing.T) {
	c := newQuotaCache(t, 4, 4, []int{2, 2}, 7)
	l := lineInSet(c, 3, 0)
	if r := c.InstallPrefetchOwned(l, 1); r.Hit {
		t.Fatal("prefetch of an absent line reported a hit")
	}
	if own, ok := c.OwnerOf(l); !ok || own != 1 {
		t.Fatalf("prefetch owner = (%d,%v), want domain 1", own, ok)
	}
	// A prefetch of a resident line is a no-op and never moves ownership.
	if r := c.InstallPrefetchOwned(l, 0); !r.Hit {
		t.Fatal("prefetch of a resident line reported a miss")
	}
	if own, _ := c.OwnerOf(l); own != 1 {
		t.Fatalf("prefetch transferred ownership to %d", own)
	}
}

// TestSetWayBudgetsRebalance pins that installed budgets take effect on the
// next fill: after shrinking domain 0 to one way, a fill by a domain at the
// new budget self-evicts instead of growing.
func TestSetWayBudgetsRebalance(t *testing.T) {
	c := newQuotaCache(t, 4, 4, []int{2, 2}, 7)
	const set = 0
	c.AccessOwned(lineInSet(c, set, 0), 0, false)
	c.SetWayBudgets([]uint16{1, 3})
	if c.WayBudget(0) != 1 || c.WayBudget(1) != 3 {
		t.Fatalf("budgets = %d,%d after SetWayBudgets", c.WayBudget(0), c.WayBudget(1))
	}
	r, _ := c.AccessOwned(lineInSet(c, set, 1), 0, false)
	if !r.DidEvict || r.Evicted != lineInSet(c, set, 0) {
		t.Fatalf("fill at shrunk budget: %+v, want self-eviction of the resident line", r)
	}
	if got := c.DomainOccupancy(set, 0); got != 1 {
		t.Fatalf("occupancy after shrink = %d, want 1", got)
	}
}

// driveQuota applies a deterministic mix of owned accesses (both
// copy-on-access modes), owned prefetches, flushes, and occasional
// rebalances across three domains.
func driveQuota(c *Cache, x *rng.Xoshiro, n int) {
	lines := uint64(c.Sets()*c.Ways()) * 4
	doms := uint64(c.QuotaDomains())
	for i := 0; i < n; i++ {
		l := mem.Line(x.Uint64() % lines)
		dom := uint8(x.Uint64() % doms)
		switch x.Uint64() % 16 {
		case 0:
			c.InstallPrefetchOwned(l, dom)
		case 1:
			c.Flush(l)
		case 2:
			b := make([]uint16, doms)
			for d := range b {
				b[d] = uint16(1 + x.Uint64()%uint64(c.Ways()))
			}
			c.SetWayBudgets(b)
		case 3:
			c.AccessOwned(l, dom, true)
		default:
			c.AccessOwned(l, dom, false)
		}
	}
}

// checkQuotaInvariants recomputes the occupancy accounting from the tag and
// owner arrays and fails on any drift.
func checkQuotaInvariants(t *testing.T, c *Cache) {
	t.Helper()
	q := c.quota
	occ := make([]uint16, len(q.occ))
	for s := 0; s < c.sets; s++ {
		base := s * c.ways
		for w := 0; w < c.ways; w++ {
			if c.tags[base+w] != invalidTag {
				occ[s*q.domains+int(q.owner[base+w])]++
			}
		}
	}
	statetest.Equal(t, "per-domain occupancy", q.occ, occ)
}

// requireSameQuota extends requireSame's behavioural equality with a
// quota-aware suffix workload and the accounting invariant.
func requireSameQuota(t *testing.T, got, want *Cache, seed uint64, n int) {
	t.Helper()
	checkQuotaInvariants(t, got)
	checkQuotaInvariants(t, want)
	gs, gst := observable(got)
	ws, wst := observable(want)
	statetest.Equal(t, "resident lines", gs, ws)
	statetest.Equal(t, "stats", gst, wst)
	gx, wx := rng.New(seed), rng.New(seed)
	driveQuota(got, gx, n)
	driveQuota(want, wx, n)
	gs, gst = observable(got)
	ws, wst = observable(want)
	statetest.Equal(t, "resident lines after suffix", gs, ws)
	statetest.Equal(t, "stats after suffix", gst, wst)
}

func newDirtyQuota(t *testing.T, seed uint64) *Cache {
	t.Helper()
	c := newQuotaCache(t, 64, 8, []int{3, 3, 2}, seed)
	driveQuota(c, rng.New(123), 20000)
	return c
}

func TestQuotaCloneEquivalenceAndIndependence(t *testing.T) {
	src := newDirtyQuota(t, 7)
	c1 := src.Clone()
	c2 := src.Clone()
	driveQuota(c1, rng.New(321), 20000) // perturb one clone
	requireSameQuota(t, src, c2, 555, 20000)
}
