package pattern

import (
	"testing"
	"testing/quick"

	"streamline/internal/mem"
)

func g(t *testing.T) mem.Geometry {
	t.Helper()
	geom, err := mem.NewGeometry(64, 4096)
	if err != nil {
		t.Fatal(err)
	}
	return geom
}

// TestStreamlineMatchesPaperEquations pins the pattern to Equations (1)-(3)
// verbatim.
func TestStreamlineMatchesPaperEquations(t *testing.T) {
	geom := g(t)
	p := NewStreamline(geom)
	const arrSz = 64 << 20
	for i := uint64(0); i < 100000; i++ {
		pg := 2*(3*i/128) + i%2
		cl := (14 + 3*(i/2)) % 64
		want := int((pg*4096 + cl*64) % arrSz)
		if got := p.Offset(i, arrSz); got != want {
			t.Fatalf("bit %d: offset %d, want %d", i, got, want)
		}
	}
}

func TestStreamlineName(t *testing.T) {
	geom := g(t)
	if NewStreamline(geom).Name() != "streamline" {
		t.Fatal("wrong name for paper pattern")
	}
	if NewXY(geom, 4, 5, 0).Name() == "streamline" {
		t.Fatal("generic XY must not claim the streamline name")
	}
}

func TestXYPanicsOnInvalid(t *testing.T) {
	geom := g(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewXY(geom, 0, 1, 0)
}

// Property: offsets are always line-aligned and within the array.
func TestOffsetsInRangeAndAligned(t *testing.T) {
	geom := g(t)
	pats := []Pattern{
		NewStreamline(geom),
		NewXY(geom, 5, 4, 0),
		NewNaivePerPage(geom),
	}
	const arrSz = 8 << 20
	for _, p := range pats {
		f := func(i uint64) bool {
			off := p.Offset(i%(1<<40), arrSz)
			return off >= 0 && off < arrSz && off%64 == 0
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", p.Name(), err)
		}
	}
}

// TestStreamlineUniqueWithinLap checks the transmission property: every bit
// of a lap uses a distinct cache line (a bit is never clobbered by a later
// bit of the same lap).
func TestStreamlineUniqueWithinLap(t *testing.T) {
	geom := g(t)
	p := NewStreamline(geom)
	const arrSz = 4 << 20
	lap := p.LapBits(arrSz)
	seen := make(map[int]uint64, lap)
	for i := uint64(0); i < lap; i++ {
		off := p.Offset(i, arrSz)
		if j, dup := seen[off]; dup {
			t.Fatalf("offset %d reused at bits %d and %d within a lap", off, j, i)
		}
		seen[off] = i
	}
}

func TestLapBitsMatchesWrap(t *testing.T) {
	geom := g(t)
	for _, tc := range []struct{ x, y int }{{3, 2}, {2, 3}, {5, 4}, {1, 1}} {
		p := NewXY(geom, tc.x, tc.y, 14)
		const arrSz = 1 << 20
		lap := p.LapBits(arrSz)
		if lap == 0 {
			t.Fatalf("xy(%d,%d): zero lap", tc.x, tc.y)
		}
		// Offsets of i and i+lap must coincide (wrap), and the offset at
		// lap-1 must still be un-wrapped relative to a huge array.
		for i := uint64(0); i < 100; i++ {
			if p.Offset(i, arrSz) != p.Offset(i+lap, arrSz) {
				// The offset %-wrap need not be an exact period for all
				// patterns, but the page number at lap must wrap to 0.
				break
			}
		}
		huge := 1 << 40
		if off := p.Offset(lap-1, huge); off >= arrSz {
			t.Fatalf("xy(%d,%d): bit lap-1 already past the array (off=%d)", tc.x, tc.y, off)
		}
		if off := p.Offset(lap, huge); off < arrSz {
			t.Fatalf("xy(%d,%d): bit lap (=%d) still inside the array (off=%d)", tc.x, tc.y, lap, off)
		}
	}
}

func TestStreamlineLapLengthApproximation(t *testing.T) {
	geom := g(t)
	p := NewStreamline(geom)
	const arrSz = 64 << 20
	lap := p.LapBits(arrSz)
	// ~ numPages * 64/3 = 16384 * 21.33 ≈ 349k
	if lap < 340000 || lap > 360000 {
		t.Fatalf("lap = %d, want ≈349k", lap)
	}
}

func TestStreamlineCoversThirdOfSets(t *testing.T) {
	geom := g(t)
	p := NewStreamline(geom)
	const arrSz = 64 << 20
	lap := p.LapBits(arrSz)
	cov := AnalyzeCoverage(p, geom, 0, arrSz, lap, 8192, 16)
	// Per page only every third line is touched, but phases drift across
	// pages, so overall set coverage is high while per-lap distinct lines
	// are ~1/3 of the array.
	if cov.Fraction < 0.9 {
		t.Fatalf("set coverage %.2f too low", cov.Fraction)
	}
	third := (arrSz / 64) / 3
	if cov.DistinctLines < third*9/10 || cov.DistinctLines > third*11/10 {
		t.Fatalf("distinct lines %d, want ≈%d (a third of the array)", cov.DistinctLines, third)
	}
}

func TestNaivePerPageCoverageIsPoor(t *testing.T) {
	geom := g(t)
	p := NewNaivePerPage(geom)
	const arrSz = 64 << 20
	cov := AnalyzeCoverage(p, geom, 0, arrSz, 16384, 8192, 16)
	// Line-in-page bits are constant: only 1/64 of sets are reachable.
	if cov.SetsTouched > 8192/64 {
		t.Fatalf("naive pattern touched %d sets, want <= %d", cov.SetsTouched, 8192/64)
	}
	if cov.BufferLines > 2048 {
		t.Fatalf("naive buffer capacity %d, want <= 2048", cov.BufferLines)
	}
}

// TestXYNextLineNeverPredictsFuture verifies the property that makes the
// paper's stride-3 choice safe against next-line prefetching: whenever
// lines L and L+1 of the same page are both accessed (possible across the
// mod-64 wrap of Cl-num), L+1 is always accessed *earlier* than L — so a
// next-line prefetch triggered by L can never install a line whose bit has
// not been transmitted yet.
func TestXYNextLineNeverPredictsFuture(t *testing.T) {
	geom := g(t)
	p := NewStreamline(geom)
	const arrSz = 64 << 20
	lap := p.LapBits(arrSz)
	if lap > 400000 {
		lap = 400000
	}
	firstSeen := map[int]uint64{} // offset -> first bit index
	for i := uint64(0); i < lap; i++ {
		off := p.Offset(i, arrSz)
		if _, dup := firstSeen[off]; !dup {
			firstSeen[off] = i
		}
	}
	for off, i := range firstSeen {
		if off%4096 == 4096-64 {
			continue // last line of page: next-line does not cross pages
		}
		if j, both := firstSeen[off+64]; both && j > i {
			t.Fatalf("offset %d (bit %d): next line accessed later (bit %d); next-line prefetch would pre-install it", off, i, j)
		}
	}
}

func TestNaiveOffsetsPageStride(t *testing.T) {
	geom := g(t)
	p := NewNaivePerPage(geom)
	if p.Offset(0, 1<<20) != 0 || p.Offset(1, 1<<20) != 4096 || p.Offset(256, 1<<20) != 0 {
		t.Fatal("naive per-page offsets wrong")
	}
}

func BenchmarkStreamlineOffset(b *testing.B) {
	geom, _ := mem.NewGeometry(64, 4096)
	p := NewStreamline(geom)
	const arrSz = 64 << 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Offset(uint64(i), arrSz)
	}
}

// TestFillAddrsMatchesOffset pins every chunked generator — and the
// package-level fallback for patterns without one — to per-bit Offset:
// FillAddrs must produce base+Offset(i, arrSize) for every i, at arbitrary
// chunk starts, for power-of-two and non-power-of-two y and array sizes.
func TestFillAddrsMatchesOffset(t *testing.T) {
	geom := g(t)
	pats := []Pattern{
		NewStreamline(geom),   // y=2: branch-free chunk loop
		NewXY(geom, 5, 4, 9),  // another pow2 y
		NewXY(geom, 3, 3, 14), // y=3: Offset fallback inside XY.FillAddrs
		NewXY(geom, 7, 1, 0),  // degenerate y=1
		NewNaivePerPage(geom),
		offsetOnly{NewStreamline(geom)}, // no Chunker: package fallback
	}
	sizes := []int{64 << 20, 1 << 16, 3 * 4096} // pow2 and non-pow2 arrays
	starts := []uint64{0, 1, 127, 128, 1 << 20, 1<<32 + 13}
	buf := make([]mem.Addr, 300)
	const base = mem.Addr(1 << 30)
	for _, p := range pats {
		for _, sz := range sizes {
			for _, start := range starts {
				FillAddrs(p, buf, base, start, sz)
				for j, got := range buf {
					want := base + mem.Addr(p.Offset(start+uint64(j), sz))
					if got != want {
						t.Fatalf("%s sz=%d start=%d bit %d: FillAddrs %d, Offset %d",
							p.Name(), sz, start, j, got, want)
					}
				}
			}
		}
	}
}

// offsetOnly hides a pattern's Chunker implementation so the test exercises
// the package-level per-bit fallback.
type offsetOnly struct{ p Pattern }

func (o offsetOnly) Name() string                { return "offset-only(" + o.p.Name() + ")" }
func (o offsetOnly) Offset(i uint64, sz int) int { return o.p.Offset(i, sz) }

// TestFillAddrsZeroAllocs pins the chunk generators as allocation-free: the
// agents refill their address buffers from the per-bit hot loop.
func TestFillAddrsZeroAllocs(t *testing.T) {
	geom := g(t)
	p := NewStreamline(geom)
	buf := make([]mem.Addr, 256)
	start := uint64(0)
	if avg := testing.AllocsPerRun(100, func() {
		FillAddrs(p, buf, 0, start, 64<<20)
		start += 256
	}); avg != 0 {
		t.Fatalf("FillAddrs allocates %.1f times per chunk, want 0", avg)
	}
}
