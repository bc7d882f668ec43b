package cache

import (
	"testing"

	"streamline/internal/mem"
	"streamline/internal/rng"
	"streamline/internal/statetest"
)

// lifecyclePolicies enumerates every stock policy with a constructor closure
// so the property tests can build fresh instances at will.
func lifecyclePolicies() map[string]func(seed uint64) Policy {
	return map[string]func(seed uint64) Policy{
		"lru":      func(uint64) Policy { return NewLRU() },
		"random":   func(seed uint64) Policy { return NewRandom(seed) },
		"treeplru": func(uint64) Policy { return NewTreePLRU() },
		"srrip":    func(seed uint64) Policy { return NewRRIP(SRRIP, seed) },
		"brrip":    func(seed uint64) Policy { return NewRRIP(BRRIP, seed) },
		"drrip":    func(seed uint64) Policy { return NewRRIP(DRRIP, seed) },
		"skylake":  func(seed uint64) Policy { return NewSkylakeLLC(seed) },
	}
}

// drive applies a deterministic pseudo-random mix of demand accesses,
// prefetch installs, and occasional flushes over a footprint that overflows
// the cache, exercising hits, misses, evictions, and every policy hook.
func drive(t *testing.T, c *Cache, x *rng.Xoshiro, n int) {
	t.Helper()
	lines := uint64(c.Sets()*c.Ways()) * 4
	for i := 0; i < n; i++ {
		l := mem.Line(x.Uint64() % lines)
		switch x.Uint64() % 8 {
		case 0:
			c.InstallPrefetch(l)
		case 1:
			c.Flush(l)
		default:
			c.Access(l)
		}
	}
}

// observable extracts a cache's externally visible state: the resident lines
// of every set plus the statistics. Two caches with equal observables and
// equal policy behaviour are indistinguishable to the simulator.
func observable(c *Cache) ([][]mem.Line, Stats) {
	var sets [][]mem.Line
	for s := 0; s < c.Sets(); s++ {
		sets = append(sets, c.LinesInSet(s, nil))
	}
	return sets, c.Stats
}

// requireSame drives both caches with an identical suffix workload and
// fails unless every outcome matches — the strongest behavioural equality
// check available without reaching into policy internals.
func requireSame(t *testing.T, got, want *Cache, seed uint64, n int) {
	t.Helper()
	gs, gst := observable(got)
	ws, wst := observable(want)
	statetest.Equal(t, "resident lines", gs, ws)
	statetest.Equal(t, "stats", gst, wst)
	gx, wx := rng.New(seed), rng.New(seed)
	lines := uint64(got.Sets()*got.Ways()) * 4
	for i := 0; i < n; i++ {
		l := mem.Line(gx.Uint64() % lines)
		wl := mem.Line(wx.Uint64() % lines)
		op := gx.Uint64() % 8
		wx.Uint64()
		switch op {
		case 0:
			g, w := got.InstallPrefetch(l), want.InstallPrefetch(wl)
			statetest.Equal(t, "prefetch result", g, w)
		case 1:
			g, w := got.Flush(l), want.Flush(wl)
			statetest.Equal(t, "flush result", g, w)
		default:
			g, w := got.Access(l), want.Access(wl)
			statetest.Equal(t, "access result", g, w)
		}
		if t.Failed() {
			t.Fatalf("divergence at suffix op %d", i)
		}
	}
}

// TestPolicyResetEqualsNew pins the reseed warm replay relies on
// (hier.ReplayWarmup resets a cloned snapshot's RRIP LLC policy): after
// arbitrary traffic, RRIP's Reset(seed) leaves it behaving exactly like
// one freshly built from seed. Every resident line is flushed and the
// statistics zeroed first, so only the policy state can tell the caches
// apart.
func TestPolicyResetEqualsNew(t *testing.T) {
	for name, mk := range lifecyclePolicies() {
		if _, ok := mk(0).(*RRIP); !ok {
			continue // only RRIP is reseeded in place
		}
		t.Run(name, func(t *testing.T) {
			const sets, ways = 64, 8
			dirty, err := New(sets, ways, mk(7))
			if err != nil {
				t.Fatal(err)
			}
			drive(t, dirty, rng.New(123), 20000)
			for s := 0; s < sets; s++ {
				for _, l := range dirty.LinesInSet(s, nil) {
					dirty.Flush(l)
				}
			}
			dirty.Stats = Stats{}
			dirty.Policy().(*RRIP).Reset(99)
			fresh, err := New(sets, ways, mk(99))
			if err != nil {
				t.Fatal(err)
			}
			requireSame(t, dirty, fresh, 555, 20000)
		})
	}
}

// TestCacheCloneEquivalence pins that a clone behaves identically to its
// source, and TestCacheCloneIndependence that driving the clone leaves the
// source untouched.
func TestCacheCloneEquivalence(t *testing.T) {
	for name, mk := range lifecyclePolicies() {
		t.Run(name, func(t *testing.T) {
			const sets, ways = 64, 8
			src, err := New(sets, ways, mk(7))
			if err != nil {
				t.Fatal(err)
			}
			drive(t, src, rng.New(123), 20000)
			c := src.Clone()
			requireSame(t, c, src, 555, 20000)
		})
	}
}

func TestCacheCloneIndependence(t *testing.T) {
	for name, mk := range lifecyclePolicies() {
		t.Run(name, func(t *testing.T) {
			const sets, ways = 64, 8
			src, err := New(sets, ways, mk(7))
			if err != nil {
				t.Fatal(err)
			}
			drive(t, src, rng.New(123), 20000)
			// Snapshot the source through a second clone, perturb the first
			// clone heavily, and check the source still matches the snapshot.
			c1 := src.Clone()
			c2 := src.Clone()
			drive(t, c1, rng.New(321), 20000)
			requireSame(t, src, c2, 555, 20000)
		})
	}
}
