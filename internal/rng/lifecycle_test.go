package rng

import "testing"

func TestReseedEqualsNew(t *testing.T) {
	x := New(7)
	for i := 0; i < 1000; i++ {
		x.Uint64()
	}
	x.Reseed(99)
	fresh := New(99)
	for i := 0; i < 1000; i++ {
		if g, w := x.Uint64(), fresh.Uint64(); g != w {
			t.Fatalf("divergence at draw %d: %#x != %#x", i, g, w)
		}
	}
}

func TestCloneEquivalenceAndIndependence(t *testing.T) {
	src := New(7)
	for i := 0; i < 1000; i++ {
		src.Uint64()
	}
	c1 := src.Clone()
	c2 := src.Clone()
	for i := 0; i < 1000; i++ {
		c1.Uint64() // perturb one clone
	}
	for i := 0; i < 1000; i++ {
		if g, w := src.Uint64(), c2.Uint64(); g != w {
			t.Fatalf("divergence at draw %d: %#x != %#x", i, g, w)
		}
	}
}

func TestCopyStateFrom(t *testing.T) {
	src := New(7)
	for i := 0; i < 1000; i++ {
		src.Uint64()
	}
	dst := New(42)
	dst.CopyStateFrom(src)
	want := src.Clone()
	for i := 0; i < 1000; i++ {
		if g, w := dst.Uint64(), want.Uint64(); g != w {
			t.Fatalf("divergence at draw %d: %#x != %#x", i, g, w)
		}
	}
}
