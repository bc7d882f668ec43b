package cache

import (
	"testing"

	"streamline/internal/mem"
	"streamline/internal/rng"
)

// opaque hides a policy's concrete type from New's devirtualization switch,
// forcing the cache onto the generic interface path. The embedded interface
// forwards every Policy method to the wrapped implementation.
type opaque struct{ Policy }

// opaquePrefetch additionally forwards PrefetchAware, so a wrapped RRIP
// keeps its distant prefetch-insertion behaviour on the generic path.
type opaquePrefetch struct {
	Policy
	pf PrefetchAware
}

func (o opaquePrefetch) OnInsertPrefetch(s, w int) { o.pf.OnInsertPrefetch(s, w) }

// traceStep drives one deterministic pseudo-random operation against both
// caches and compares the outcomes.
func traceStep(t *testing.T, fast, generic *Cache, x *rng.Xoshiro, step int) {
	t.Helper()
	l := mem.Line(x.Intn(1024)) // 8 sets x 128 candidate lines: heavy conflict pressure
	var rf, rg Result
	var op string
	switch x.Intn(20) {
	case 0, 1, 2: // prefetch install
		op = "InstallPrefetch"
		rf, rg = fast.InstallPrefetch(l), generic.InstallPrefetch(l)
	case 3: // invalidate
		op = "Invalidate"
		bf, bg := fast.Invalidate(l), generic.Invalidate(l)
		if bf != bg {
			t.Fatalf("step %d: Invalidate(%d) = %v (fast) vs %v (generic)", step, l, bf, bg)
		}
		return
	case 4: // flush
		op = "Flush"
		bf, bg := fast.Flush(l), generic.Flush(l)
		if bf != bg {
			t.Fatalf("step %d: Flush(%d) = %v (fast) vs %v (generic)", step, l, bf, bg)
		}
		return
	default: // demand access
		op = "Access"
		rf, rg = fast.Access(l), generic.Access(l)
	}
	if rf != rg {
		t.Fatalf("step %d: %s(%d) = %+v (fast) vs %+v (generic)", step, op, l, rf, rg)
	}
}

// compareState asserts that both caches agree on stats, occupancy, and the
// exact resident lines of every set.
func compareState(t *testing.T, fast, generic *Cache, step int) {
	t.Helper()
	if fast.Stats != generic.Stats {
		t.Fatalf("step %d: stats diverge: %+v (fast) vs %+v (generic)", step, fast.Stats, generic.Stats)
	}
	if fast.occupied() != generic.occupied() {
		t.Fatalf("step %d: occupancy %d (fast) vs %d (generic)", step, fast.occupied(), generic.occupied())
	}
	var bufF, bufG []mem.Line
	for s := 0; s < fast.Sets(); s++ {
		bufF = fast.LinesInSet(s, bufF[:0])
		bufG = generic.LinesInSet(s, bufG[:0])
		if len(bufF) != len(bufG) {
			t.Fatalf("step %d: set %d holds %d lines (fast) vs %d (generic)", step, s, len(bufF), len(bufG))
		}
		for i := range bufF {
			if bufF[i] != bufG[i] {
				t.Fatalf("step %d: set %d way-order diverges: %v vs %v", step, s, bufF, bufG)
			}
		}
	}
}

// TestDevirtualizedRRIPMatchesInterfacePath drives the concrete-type RRIP
// fast path and the interface path with the same long random trace and
// requires identical hit/miss/victim outcomes, identical stats, and
// identical age metadata throughout — the referee for the hot-path
// devirtualization.
func TestDevirtualizedRRIPMatchesInterfacePath(t *testing.T) {
	for _, mode := range []RRIPMode{SRRIP, BRRIP, DRRIP} {
		pf := NewRRIP(mode, 77)
		pf.DistantFrac32 = 3 // the Skylake-mix flavour exercises the bimodal RNG draw
		pg := NewRRIP(mode, 77)
		pg.DistantFrac32 = 3

		fast := mustNew(t, 8, 4, pf)
		generic := mustNew(t, 8, 4, opaquePrefetch{Policy: pg, pf: pg})
		if fast.kind != polRRIP {
			t.Fatalf("mode %v: concrete *RRIP not devirtualized (kind %d)", mode, fast.kind)
		}
		if generic.kind != polGeneric {
			t.Fatalf("mode %v: wrapped policy unexpectedly devirtualized (kind %d)", mode, generic.kind)
		}

		x := rng.New(0xdeadbead ^ uint64(mode))
		for step := 0; step < 60000; step++ {
			traceStep(t, fast, generic, x, step)
			if step%1000 == 0 {
				compareState(t, fast, generic, step)
				for s := 0; s < fast.Sets(); s++ {
					for w := 0; w < fast.Ways(); w++ {
						if pf.AgeOf(s, w) != pg.AgeOf(s, w) {
							t.Fatalf("mode %v step %d: age(%d,%d) = %d (fast) vs %d (generic)",
								mode, step, s, w, pf.AgeOf(s, w), pg.AgeOf(s, w))
						}
					}
				}
			}
		}
		compareState(t, fast, generic, 60000)
		if pf.PSel() != pg.PSel() {
			t.Fatalf("mode %v: PSEL diverged: %d vs %d", mode, pf.PSel(), pg.PSel())
		}
	}
}

// TestDevirtualizedPLRUMatchesInterfacePath is the tree-PLRU twin: the
// private-cache policy must produce the same victim sequence through the
// concrete path and the interface path.
func TestDevirtualizedPLRUMatchesInterfacePath(t *testing.T) {
	fast := mustNew(t, 8, 8, NewTreePLRU())
	generic := mustNew(t, 8, 8, opaque{NewTreePLRU()})
	if fast.kind != polPLRU {
		t.Fatalf("concrete *TreePLRU not devirtualized (kind %d)", fast.kind)
	}
	if generic.kind != polGeneric {
		t.Fatalf("wrapped policy unexpectedly devirtualized (kind %d)", generic.kind)
	}
	x := rng.New(0x9e37)
	for step := 0; step < 60000; step++ {
		traceStep(t, fast, generic, x, step)
		if step%1000 == 0 {
			compareState(t, fast, generic, step)
		}
	}
	compareState(t, fast, generic, 60000)
}

// TestMRUHintIsInvisible checks that the last-hit-way fast path cannot
// change an outcome: interleaving accesses that repeatedly hit one line
// (hint valid), alternate between lines (hint stale), and invalidate the
// hinted way (hint pointing at the sentinel) must match a hint-free oracle
// — here the generic-path cache, whose find goes through the same code, so
// the oracle is the per-step Result comparison against a replayed trace.
func TestMRUHintIsInvisible(t *testing.T) {
	pol := NewSkylakeLLC(5)
	c := mustNew(t, 4, 2, pol)
	// Hit the same line twice: second access must take the hint.
	if r := c.Access(12); r.Hit {
		t.Fatal("cold access hit")
	}
	if r := c.Access(12); !r.Hit {
		t.Fatal("hint-path access missed")
	}
	// Invalidate the hinted way: the hint now points at the sentinel and
	// must not produce a phantom hit.
	c.Invalidate(12)
	if c.Probe(12) {
		t.Fatal("probe hit an invalidated line via the stale hint")
	}
	if r := c.Access(12); r.Hit {
		t.Fatal("access hit an invalidated line via the stale hint")
	}
}
