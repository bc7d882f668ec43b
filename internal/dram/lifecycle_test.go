package dram

import (
	"testing"

	"streamline/internal/mem"
	"streamline/internal/rng"
	"streamline/internal/statetest"
)

// driveModel applies a pseudo-random access sequence with advancing time,
// exercising row hits, conflicts, queueing, and the jitter/fast-tail RNG.
func driveModel(m *Model, x *rng.Xoshiro, n int) {
	now := uint64(0)
	for i := 0; i < n; i++ {
		now += x.Uint64() % 300
		m.Latency(now, mem.Addr(x.Uint64()%(64<<20)))
	}
}

// requireSameModel drives both models with an identical suffix and fails on
// the first diverging latency.
func requireSameModel(t *testing.T, got, want *Model, seed uint64, n int) {
	t.Helper()
	statetest.Equal(t, "stats",
		[5]uint64{got.Accesses, got.RowHits, got.RowMisses, got.Conflicts, got.FastTails},
		[5]uint64{want.Accesses, want.RowHits, want.RowMisses, want.Conflicts, want.FastTails})
	x := rng.New(seed)
	now := uint64(0)
	for i := 0; i < n; i++ {
		now += x.Uint64() % 300
		a := mem.Addr(x.Uint64() % (64 << 20))
		if g, w := got.Latency(now, a), want.Latency(now, a); g != w {
			t.Fatalf("latency divergence at suffix op %d: %d != %d", i, g, w)
		}
	}
}

func TestModelResetEqualsNew(t *testing.T) {
	dirty := New(DefaultConfig(), 7)
	driveModel(dirty, rng.New(123), 50000)
	dirty.Reset(99)
	requireSameModel(t, dirty, New(DefaultConfig(), 99), 555, 50000)
}

func TestModelCloneEquivalenceAndIndependence(t *testing.T) {
	src := New(DefaultConfig(), 7)
	driveModel(src, rng.New(123), 50000)
	c1 := src.Clone()
	c2 := src.Clone()
	driveModel(c1, rng.New(321), 50000) // perturb one clone
	requireSameModel(t, src, c2, 555, 50000)
}
