package cache

import (
	"testing"
	"testing/quick"

	"streamline/internal/mem"
	"streamline/internal/rng"
)

func mustNew(t *testing.T, sets, ways int, pol Policy) *Cache {
	t.Helper()
	c, err := New(sets, ways, pol)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewRejectsBadShapes(t *testing.T) {
	if _, err := New(0, 4, NewLRU()); err == nil {
		t.Error("accepted zero sets")
	}
	if _, err := New(3, 4, NewLRU()); err == nil {
		t.Error("accepted non-power-of-two sets")
	}
	if _, err := New(4, 0, NewLRU()); err == nil {
		t.Error("accepted zero ways")
	}
	if _, err := New(4, 4, nil); err == nil {
		t.Error("accepted nil policy")
	}
}

func TestBasicHitMiss(t *testing.T) {
	c := mustNew(t, 4, 2, NewLRU())
	if r := c.Access(0); r.Hit {
		t.Fatal("first access should miss")
	}
	if r := c.Access(0); !r.Hit {
		t.Fatal("second access should hit")
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestSetMapping(t *testing.T) {
	c := mustNew(t, 8, 1, NewLRU())
	// Lines 0 and 8 map to the same set; 1 maps elsewhere.
	if c.SetOf(0) != c.SetOf(8) || c.SetOf(0) == c.SetOf(1) {
		t.Fatal("set mapping wrong")
	}
	c.Access(0)
	c.Access(1)
	r := c.Access(8) // conflicts with 0 in a direct-mapped set
	if !r.DidEvict || r.Evicted != 0 {
		t.Fatalf("expected eviction of line 0, got %+v", r)
	}
	if c.Probe(0) {
		t.Fatal("line 0 should be evicted")
	}
	if !c.Probe(1) {
		t.Fatal("line 1 should be untouched")
	}
}

func TestLRUVictimOrder(t *testing.T) {
	c := mustNew(t, 1, 4, NewLRU())
	for l := mem.Line(0); l < 4; l++ {
		c.Access(l)
	}
	c.Access(0)        // 0 is now MRU; LRU order: 1,2,3,0
	r := c.Access(100) // evicts 1
	if !r.DidEvict || r.Evicted != 1 {
		t.Fatalf("want eviction of 1, got %+v", r)
	}
	r = c.Access(101) // evicts 2
	if r.Evicted != 2 {
		t.Fatalf("want eviction of 2, got %+v", r)
	}
}

func TestFlushAndInvalidate(t *testing.T) {
	c := mustNew(t, 4, 2, NewLRU())
	c.Access(5)
	if !c.Flush(5) {
		t.Fatal("flush of present line should report true")
	}
	if c.Flush(5) {
		t.Fatal("flush of absent line should report false")
	}
	if c.Probe(5) {
		t.Fatal("line present after flush")
	}
	c.Access(6)
	if !c.Invalidate(6) || c.Probe(6) {
		t.Fatal("invalidate failed")
	}
	if c.Stats.Flushes != 2 {
		t.Fatalf("flush count = %d", c.Stats.Flushes)
	}
}

func TestOccupancy(t *testing.T) {
	c := mustNew(t, 2, 4, NewLRU())
	if c.occupied() != 0 {
		t.Fatal("new cache not empty")
	}
	for l := mem.Line(0); l < 8; l++ {
		c.Access(l)
	}
	if c.occupied() != 8 {
		t.Fatalf("occupied = %d", c.occupied())
	}
	if c.OccupancyOf(0) != 4 {
		t.Fatalf("set occupancy = %d", c.OccupancyOf(0))
	}
	got := c.LinesInSet(0, nil)
	if len(got) != 4 {
		t.Fatalf("LinesInSet returned %v", got)
	}
}

// Property: a probe immediately after an access always hits, for every
// policy, and capacity is never exceeded.
func TestAccessThenProbe(t *testing.T) {
	policies := func() []Policy {
		return []Policy{
			NewLRU(), NewRandom(1), NewTreePLRU(),
			NewRRIP(SRRIP, 2), NewRRIP(BRRIP, 3), NewRRIP(DRRIP, 4),
		}
	}
	for _, pol := range policies() {
		c := mustNew(t, 16, 4, pol)
		f := func(lines []uint16) bool {
			for _, raw := range lines {
				l := mem.Line(raw)
				c.Access(l)
				if !c.Probe(l) {
					return false
				}
			}
			return c.occupied() <= 16*4
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("policy %T: %v", pol, err)
		}
	}
}

// Property: every set holds at most `ways` lines and all resident lines map
// to their own set.
func TestSetInvariants(t *testing.T) {
	c := mustNew(t, 8, 2, NewRRIP(DRRIP, 9))
	f := func(lines []uint32) bool {
		for _, raw := range lines {
			c.Access(mem.Line(raw % 4096))
		}
		for s := 0; s < c.Sets(); s++ {
			got := c.LinesInSet(s, nil)
			if len(got) > c.Ways() {
				return false
			}
			for _, l := range got {
				if c.SetOf(l) != s {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRRIPHitProtection(t *testing.T) {
	// A line that receives hits should outlive untouched lines under
	// thrashing pressure — the property Streamline's trailing accesses
	// exploit (Section 3.3.2).
	pol := NewRRIP(SRRIP, 1)
	c := mustNew(t, 1, 4, pol)
	c.Access(0)
	c.Access(0) // age 0->... hit-decrement protects line 0
	c.Access(0)
	for l := mem.Line(1); l <= 3; l++ {
		c.Access(l)
	}
	// Thrash with fresh lines; line 0 should survive the first evictions.
	c.Access(10)
	if !c.Probe(0) {
		t.Fatal("hit-protected line evicted before unhit lines")
	}
}

func TestRRIPVictimAlwaysValidWay(t *testing.T) {
	pol := NewRRIP(BRRIP, 5)
	c := mustNew(t, 2, 8, pol)
	for i := 0; i < 10000; i++ {
		c.Access(mem.Line(i))
	}
	if c.occupied() != 16 {
		t.Fatalf("occupied = %d, want full", c.occupied())
	}
}

func TestRRIPAgesAfterAttach(t *testing.T) {
	pol := NewRRIP(SRRIP, 1)
	mustNew(t, 2, 2, pol)
	for s := 0; s < 2; s++ {
		for w := 0; w < 2; w++ {
			if pol.AgeOf(s, w) != maxAge {
				t.Fatalf("initial age (%d,%d) = %d", s, w, pol.AgeOf(s, w))
			}
		}
	}
}

func TestDRRIPDuelingMovesPSel(t *testing.T) {
	pol := NewRRIP(DRRIP, 6)
	c := mustNew(t, 64, 2, pol)
	before := pol.PSel()
	// Generate misses in leader set 0 (SRRIP leader) only: lines mapping
	// to set 0 are multiples of 64.
	for i := 0; i < 100; i++ {
		c.Access(mem.Line(i * 64))
	}
	if pol.PSel() >= before {
		t.Fatalf("PSEL did not move toward BRRIP on SRRIP-leader misses: %d -> %d", before, pol.PSel())
	}
}

func TestSRRIPScanResistance(t *testing.T) {
	// Under a pure streaming (no-reuse) workload, SRRIP behaves FIFO-ish;
	// under BRRIP most insertions are distant so a long-resident set of
	// lines survives. Verify BRRIP churns fewer distinct ways.
	stream := func(pol Policy) int {
		c, err := New(1, 8, pol)
		if err != nil {
			t.Fatal(err)
		}
		for l := mem.Line(0); l < 8; l++ {
			c.Access(l)
		}
		evictedWays := map[int]bool{}
		for l := mem.Line(100); l < 200; l++ {
			r := c.Access(l)
			if r.DidEvict {
				evictedWays[r.Way] = true
			}
		}
		return len(evictedWays)
	}
	srripWays := stream(NewRRIP(SRRIP, 1))
	brripWays := stream(NewRRIP(BRRIP, 1))
	if brripWays > srripWays {
		t.Fatalf("BRRIP churned %d ways, SRRIP %d; expected BRRIP <= SRRIP", brripWays, srripWays)
	}
}

func TestInstallPrefetchPresentLineNoAgeRefresh(t *testing.T) {
	pol := NewRRIP(SRRIP, 1)
	c := mustNew(t, 1, 2, pol)
	r := c.Access(0)
	ageBefore := pol.AgeOf(0, r.Way)
	c.InstallPrefetch(0) // already present: must not rejuvenate
	if pol.AgeOf(0, r.Way) != ageBefore {
		t.Fatal("prefetch of present line changed its age")
	}
}

func TestInstallPrefetchDistantAge(t *testing.T) {
	pol := NewRRIP(SRRIP, 1)
	c := mustNew(t, 1, 2, pol)
	r := c.InstallPrefetch(7)
	if r.Hit {
		t.Fatal("prefetch install of new line reported hit")
	}
	if pol.AgeOf(0, r.Way) != maxAge {
		t.Fatalf("prefetched line age = %d, want %d", pol.AgeOf(0, r.Way), maxAge)
	}
	if c.Stats.Prefetches != 1 {
		t.Fatalf("prefetch count = %d", c.Stats.Prefetches)
	}
}

func TestTreePLRUFullCoverage(t *testing.T) {
	c := mustNew(t, 1, 8, NewTreePLRU())
	for l := mem.Line(0); l < 8; l++ {
		c.Access(l)
	}
	// Victim rotation must visit all ways over 8 evictions of untouched
	// lines.
	ways := map[int]bool{}
	for l := mem.Line(100); l < 108; l++ {
		r := c.Access(l)
		ways[r.Way] = true
	}
	if len(ways) != 8 {
		t.Fatalf("tree-PLRU churned only %d ways", len(ways))
	}
}

func TestTreePLRUPanicsOnNonPow2Ways(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_, _ = New(2, 3, NewTreePLRU())
}

func TestRandomPolicyDeterministicWithSeed(t *testing.T) {
	run := func() []mem.Line {
		c := mustNew(t, 1, 4, NewRandom(42))
		var ev []mem.Line
		for l := mem.Line(0); l < 50; l++ {
			if r := c.Access(l); r.DidEvict {
				ev = append(ev, r.Evicted)
			}
		}
		return ev
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different eviction counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("eviction sequences diverge at %d", i)
		}
	}
}

// TestOccupiedCounterMatchesScan cross-checks the per-set valid-line
// counters (which let fill skip its empty-way scan) against a full tag
// scan of every set through a random mix of accesses, prefetch installs,
// invalidates, and flushes.
func TestOccupiedCounterMatchesScan(t *testing.T) {
	c := mustNew(t, 8, 4, NewSkylakeLLC(3))
	x := rng.New(9)
	check := func(step int) {
		t.Helper()
		var buf []mem.Line
		for s := 0; s < c.Sets(); s++ {
			buf = c.LinesInSet(s, buf[:0])
			if got := int(c.setOcc[s]); got != len(buf) {
				t.Fatalf("step %d: set %d counts %d lines, scan says %d", step, s, got, len(buf))
			}
		}
	}
	for i := 0; i < 20000; i++ {
		l := mem.Line(x.Intn(256))
		switch x.Intn(10) {
		case 0:
			c.Invalidate(l)
		case 1:
			c.Flush(l)
		case 2:
			c.InstallPrefetch(l)
		default:
			c.Access(l)
		}
		if i%500 == 0 {
			check(i)
		}
	}
	check(20000)
}

func BenchmarkAccessRRIPThrash(b *testing.B) {
	pol := NewRRIP(DRRIP, 1)
	c, err := New(8192, 16, pol)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(mem.Line(i))
	}
}

func BenchmarkAccessLRUHit(b *testing.B) {
	c, err := New(8192, 16, NewLRU())
	if err != nil {
		b.Fatal(err)
	}
	c.Access(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0)
	}
}
