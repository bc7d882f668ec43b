package mem

import (
	"testing"
	"testing/quick"
)

func geom(t *testing.T) Geometry {
	t.Helper()
	g, err := NewGeometry(64, 4096)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGeometryRejectsBadSizes(t *testing.T) {
	cases := []struct{ line, page int }{
		{0, 4096}, {63, 4096}, {64, 0}, {64, 4095}, {-64, 4096}, {128, 64},
	}
	for _, c := range cases {
		if _, err := NewGeometry(c.line, c.page); err == nil {
			t.Errorf("NewGeometry(%d,%d) accepted invalid sizes", c.line, c.page)
		}
	}
}

func TestLineDecomposition(t *testing.T) {
	g := geom(t)
	if g.LineOf(0) != 0 || g.LineOf(63) != 0 || g.LineOf(64) != 1 {
		t.Fatal("LineOf boundary behaviour wrong")
	}
	if g.AddrOfLine(3) != 192 {
		t.Fatalf("AddrOfLine(3) = %d", g.AddrOfLine(3))
	}
	if g.PageOf(4095) != 0 || g.PageOf(4096) != 1 {
		t.Fatal("PageOf boundary behaviour wrong")
	}
	if g.LineInPage(4096+14*64) != 14 {
		t.Fatalf("LineInPage = %d, want 14", g.LineInPage(4096+14*64))
	}
	if g.LinesPerPage() != 64 {
		t.Fatalf("LinesPerPage = %d, want 64", g.LinesPerPage())
	}
}

// TestLinesPerPageMatchesDivision checks the shift against the division it
// replaced over every geometry NewGeometry accepts up to 1 GiB pages.
func TestLinesPerPageMatchesDivision(t *testing.T) {
	for ls := 0; ls <= 30; ls++ {
		for ps := ls; ps <= 30; ps++ {
			g, err := NewGeometry(1<<ls, 1<<ps)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := g.LinesPerPage(), g.PageBytes/g.LineBytes; got != want {
				t.Fatalf("line %d page %d: LinesPerPage = %d, want %d", g.LineBytes, g.PageBytes, got, want)
			}
		}
	}
}

func TestLineAddrRoundTrip(t *testing.T) {
	g := geom(t)
	f := func(a uint64) bool {
		a &= 1<<48 - 1 // realistic physical address width
		l := g.LineOf(Addr(a))
		back := g.AddrOfLine(l)
		return back <= Addr(a) && Addr(a)-back < 64 && g.LineOf(back) == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegionContainsAndIndex(t *testing.T) {
	r := Region{Base: 4096, Size: 8192}
	if !r.Contains(4096) || !r.Contains(4096+8191) {
		t.Fatal("region should contain its endpoints")
	}
	if r.Contains(4095) || r.Contains(4096+8192) {
		t.Fatal("region contains addresses outside itself")
	}
	if r.AddrAt(100) != 4196 {
		t.Fatalf("AddrAt = %d", r.AddrAt(100))
	}
}

func TestRegionAddrAtPanicsOutside(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddrAt outside region did not panic")
		}
	}()
	Region{Base: 0, Size: 64}.AddrAt(64)
}

func TestAllocatorDisjointAligned(t *testing.T) {
	a := NewAllocator(4096)
	var regs []Region
	for i := 0; i < 20; i++ {
		regs = append(regs, a.Alloc(1000*(i+1)))
	}
	for i, r := range regs {
		if uint64(r.Base)%4096 != 0 {
			t.Errorf("region %d base %#x not page aligned", i, r.Base)
		}
		if r.Size < 1000*(i+1) {
			t.Errorf("region %d smaller than requested", i)
		}
		for j := i + 1; j < len(regs); j++ {
			s := regs[j]
			if r.Contains(s.Base) || s.Contains(r.Base) {
				t.Errorf("regions %d and %d overlap", i, j)
			}
		}
	}
}

func TestAllocatorZeroValueUsable(t *testing.T) {
	var a Allocator
	r := a.Alloc(64)
	if r.Size < 64 || r.Base == 0 {
		t.Fatalf("zero-value allocator returned %+v", r)
	}
}
