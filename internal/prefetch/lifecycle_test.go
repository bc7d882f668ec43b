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

// observer is the observe method every prefetcher shares.
type observer interface {
	Observe(addr mem.Addr, dst []mem.Addr) []mem.Addr
}

// lifecycleCase builds one prefetcher and clones it through its own
// concrete Clone.
type lifecycleCase struct {
	mk    func() observer
	clone func(observer) observer
}

func lifecyclePrefetchers(t *testing.T) map[string]lifecycleCase {
	g := testGeom(t)
	return map[string]lifecycleCase{
		"nextline": {
			func() observer { return NewNextLine(g) },
			func(p observer) observer { return p.(*NextLine).Clone() },
		},
		"streamer": {
			func() observer { return NewStreamer(g) },
			func(p observer) observer { return p.(*Streamer).Clone() },
		},
		"stride": {
			func() observer { return NewStride(g) },
			func(p observer) observer { return p.(*Stride).Clone() },
		},
		"intel": {
			func() observer { return NewIntelLike(g) },
			func(p observer) observer { return p.(*Composite).Clone() },
		},
	}
}

// drivePf feeds a mix of dense streams and random jumps — enough to train
// the streamer and stride tables and evict tracker slots.
func drivePf(p observer, x *rng.Xoshiro, n int) {
	var buf []mem.Addr
	a := mem.Addr(x.Uint64() % (16 << 20))
	for i := 0; i < n; i++ {
		switch x.Uint64() % 8 {
		case 0:
			a = mem.Addr(x.Uint64() % (16 << 20)) // new stream
		default:
			a += mem.Addr(64 * (1 + x.Uint64()%3)) // advance current stream
		}
		buf = p.Observe(a, buf[:0])
	}
}

// requireSamePf drives both prefetchers with an identical suffix and fails
// on the first diverging proposal list.
func requireSamePf(t *testing.T, got, want observer, seed uint64, n int) {
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
		gb = got.Observe(a, gb[:0])
		wb = want.Observe(a, wb[:0])
		statetest.Equal(t, "proposals", gb, wb)
		if t.Failed() {
			t.Fatalf("divergence at suffix op %d", i)
		}
	}
}

func TestPrefetcherCloneEquivalenceAndIndependence(t *testing.T) {
	for name, tc := range lifecyclePrefetchers(t) {
		t.Run(name, func(t *testing.T) {
			src := tc.mk()
			drivePf(src, rng.New(123), 20000)
			c1 := tc.clone(src)
			c2 := tc.clone(src)
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
