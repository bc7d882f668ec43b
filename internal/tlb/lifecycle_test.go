package tlb

import (
	"testing"

	"streamline/internal/mem"
	"streamline/internal/rng"
	"streamline/internal/statetest"
)

func driveTLB(tb *TLB, x *rng.Xoshiro, n int) {
	for i := 0; i < n; i++ {
		tb.Penalty(mem.Addr(x.Uint64() % (256 << 20)))
	}
}

func requireSameTLB(t *testing.T, got, want *TLB, seed uint64, n int) {
	t.Helper()
	statetest.Equal(t, "stats",
		[3]uint64{got.Accesses, got.L1Misses, got.Walks},
		[3]uint64{want.Accesses, want.L1Misses, want.Walks})
	x := rng.New(seed)
	for i := 0; i < n; i++ {
		a := mem.Addr(x.Uint64() % (256 << 20))
		if g, w := got.Penalty(a), want.Penalty(a); g != w {
			t.Fatalf("penalty divergence at suffix op %d: %d != %d", i, g, w)
		}
	}
}

func TestTLBCloneEquivalenceAndIndependence(t *testing.T) {
	src, err := New(Skylake4K())
	if err != nil {
		t.Fatal(err)
	}
	driveTLB(src, rng.New(123), 50000)
	c1 := src.Clone()
	c2 := src.Clone()
	driveTLB(c1, rng.New(321), 50000) // perturb one clone
	requireSameTLB(t, src, c2, 555, 50000)
}
