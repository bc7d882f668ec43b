package prefetch

import (
	"testing"

	"streamline/internal/mem"
	"streamline/internal/rng"
	"streamline/internal/statetest"
)

func testGeom(t *testing.T) mem.Geometry {
	t.Helper()
	g, err := mem.NewGeometry(64, 4096)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func lifecyclePrefetchers(t *testing.T) map[string]func() Prefetcher {
	g := testGeom(t)
	return map[string]func() Prefetcher{
		"none":     func() Prefetcher { return None{} },
		"nextline": func() Prefetcher { return NewNextLine(g) },
		"streamer": func() Prefetcher { return NewStreamer(g) },
		"stride":   func() Prefetcher { return NewStride(g) },
		"intel":    func() Prefetcher { return NewIntelLike(g) },
	}
}

// drivePf feeds a mix of dense streams and random jumps — enough to train
// the streamer and stride tables and evict tracker slots.
func drivePf(p Prefetcher, x *rng.Xoshiro, n int) {
	var buf []mem.Addr
	a := mem.Addr(x.Uint64() % (16 << 20))
	for i := 0; i < n; i++ {
		switch x.Uint64() % 8 {
		case 0:
			a = mem.Addr(x.Uint64() % (16 << 20)) // new stream
		default:
			a += mem.Addr(64 * (1 + x.Uint64()%3)) // advance current stream
		}
		buf = p.Observe(a, x.Uint64()%2 == 0, buf[:0])
	}
}

// requireSamePf drives both prefetchers with an identical suffix and fails
// on the first diverging proposal list.
func requireSamePf(t *testing.T, got, want Prefetcher, seed uint64, n int) {
	t.Helper()
	x := rng.New(seed)
	var gb, wb []mem.Addr
	a := mem.Addr(x.Uint64() % (16 << 20))
	for i := 0; i < n; i++ {
		switch x.Uint64() % 8 {
		case 0:
			a = mem.Addr(x.Uint64() % (16 << 20))
		default:
			a += mem.Addr(64 * (1 + x.Uint64()%3))
		}
		hit := x.Uint64()%2 == 0
		gb = got.Observe(a, hit, gb[:0])
		wb = want.Observe(a, hit, wb[:0])
		statetest.Equal(t, "proposals", gb, wb)
		if t.Failed() {
			t.Fatalf("divergence at suffix op %d", i)
		}
	}
}

func TestPrefetcherCloneEquivalenceAndIndependence(t *testing.T) {
	for name, mk := range lifecyclePrefetchers(t) {
		t.Run(name, func(t *testing.T) {
			src := mk()
			drivePf(src, rng.New(123), 20000)
			lc, ok := src.(Lifecycle)
			if !ok {
				t.Fatalf("%s does not implement Lifecycle", src.Name())
			}
			c1 := lc.Clone()
			c2 := lc.Clone()
			drivePf(c1, rng.New(321), 20000) // perturb one clone
			requireSamePf(t, src, c2, 555, 20000)
		})
	}
}

// TestPrefetchFieldAudits pins streamMeta, the one piece of prefetcher
// state without a Clone of its own: Streamer.Clone copies the meta slice
// element by element, so a reference field added here would be shared
// between clones, and the lifecycle analyzer (which checks every type that
// declares Clone) would not see it.
func TestPrefetchFieldAudits(t *testing.T) {
	statetest.Fields(t, streamMeta{}, "lastLip", "stride", "conf", "lru")
}
