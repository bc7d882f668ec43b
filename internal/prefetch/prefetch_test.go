package prefetch

import (
	"slices"
	"testing"

	"streamline/internal/mem"
	"streamline/internal/rng"
	"streamline/internal/statetest"
)

func g(t *testing.T) mem.Geometry {
	t.Helper()
	geom, err := mem.NewGeometry(64, 4096)
	if err != nil {
		t.Fatal(err)
	}
	return geom
}

func lines(geom mem.Geometry, addrs []mem.Addr) []int {
	out := make([]int, len(addrs))
	for i, a := range addrs {
		out[i] = int(geom.LineOf(a))
	}
	return out
}

func TestNextLineNeedsAscendingStreak(t *testing.T) {
	geom := g(t)
	p := NewNextLine(geom)
	if got := p.Observe(0, nil); len(got) != 0 {
		t.Fatalf("first access triggered next-line: %v", lines(geom, got))
	}
	got := p.Observe(64, nil) // ascending streak 0 -> 1
	if len(got) != 1 || geom.LineOf(got[0]) != 2 {
		t.Fatalf("streak proposed %v, want line 2", lines(geom, got))
	}
	// A stride-3 access breaks the streak: no proposal.
	if got := p.Observe(64*4, nil); len(got) != 0 {
		t.Fatalf("stride access triggered next-line: %v", lines(geom, got))
	}
}

func TestNextLineStopsAtPageBoundary(t *testing.T) {
	geom := g(t)
	p := NewNextLine(geom)
	p.Observe(mem.Addr(62*64), nil)
	last := mem.Addr(63 * 64) // streaked access to the final line of page 0
	if got := p.Observe(last, nil); len(got) != 0 {
		t.Fatalf("next-line crossed page boundary: %v", lines(geom, got))
	}
}

func TestStreamerLearnsDenseRun(t *testing.T) {
	geom := g(t)
	p := NewStreamer(geom)
	var got []mem.Addr
	// Stride-2 run within one page: should train after two deltas.
	for i := 0; i < 4; i++ {
		got = p.Observe(mem.Addr(i*2*64), got[:0])
	}
	if len(got) == 0 {
		t.Fatal("streamer failed to train on dense stride-2 run")
	}
	// Proposals continue the stride within the page.
	for _, a := range got {
		if geom.PageOf(a) != 0 {
			t.Fatalf("streamer crossed page: %v", lines(geom, got))
		}
		if geom.LineInPage(a)%2 != 0 {
			t.Fatalf("streamer proposed off-stride line %d", geom.LineInPage(a))
		}
	}
}

func TestStreamerIgnoresSparseStride(t *testing.T) {
	geom := g(t)
	p := NewStreamer(geom)
	var got []mem.Addr
	// Stride-3 exceeds the dense window: never trains.
	for i := 0; i < 20; i++ {
		got = p.Observe(mem.Addr(i*3*64), got[:0])
		if len(got) != 0 {
			t.Fatalf("streamer trained on stride-3 at step %d: %v", i, lines(geom, got))
		}
	}
}

func TestStreamerTracksInterleavedPages(t *testing.T) {
	geom := g(t)
	p := NewStreamer(geom)
	var got []mem.Addr
	proposals := 0
	// Two pages, dense stride 1, interleaved: per-page tracking should
	// still train both streams.
	for i := 0; i < 8; i++ {
		a := mem.Addr(i/2*64) + mem.Addr(i%2*4096)
		got = p.Observe(a, got[:0])
		proposals += len(got)
	}
	if proposals == 0 {
		t.Fatal("streamer failed to track interleaved dense streams")
	}
}

func TestStreamerDescendingRun(t *testing.T) {
	geom := g(t)
	p := NewStreamer(geom)
	var got []mem.Addr
	for i := 10; i >= 5; i-- {
		got = p.Observe(mem.Addr(i*64), got[:0])
	}
	if len(got) == 0 {
		t.Fatal("streamer failed on descending run")
	}
	for _, a := range got {
		if geom.LineInPage(a) >= 5 {
			t.Fatalf("descending proposal went the wrong way: line %d", geom.LineInPage(a))
		}
	}
}

func TestStreamerEntryEviction(t *testing.T) {
	geom := g(t)
	p := NewStreamer(geom)
	// Touch 32 distinct pages: table has 16 entries, must not grow or panic.
	for i := 0; i < 32; i++ {
		p.Observe(mem.Addr(i*4096), nil)
	}
	valid := 0
	for _, pg := range p.pages {
		if pg != pageNone {
			valid++
		}
	}
	if valid != 16 {
		t.Fatalf("streamer table holds %d entries, want 16", valid)
	}
}

func TestStrideLearnsConstantDelta(t *testing.T) {
	geom := g(t)
	p := NewStride(geom)
	var got []mem.Addr
	// Constant stride of 3 lines within a page (y=1 in Table 1 terms).
	for i := 0; i < 5; i++ {
		got = p.Observe(mem.Addr(i*3*64), got[:0])
	}
	if len(got) == 0 {
		t.Fatal("stride detector failed on constant delta")
	}
	if geom.LineOf(got[0]) != 15 { // 4*3 + 3
		t.Fatalf("stride proposal = line %d, want 15", geom.LineOf(got[0]))
	}
}

func TestStrideDefeatedByAlternatingDeltas(t *testing.T) {
	geom := g(t)
	p := NewStride(geom)
	// The Streamline pattern: pairs of pages, stride 3, alternating —
	// deltas alternate and never repeat consecutively.
	var got []mem.Addr
	for i := 0; i < 40; i++ {
		page := uint64(i % 2)
		line := i / 2 * 3
		a := mem.Addr(page*4096 + uint64(line*64))
		got = p.Observe(a, got[:0])
		if len(got) != 0 {
			t.Fatalf("stride detector trained on alternating pattern at step %d", i)
		}
	}
}

func TestStrideDoesNotCrossPages(t *testing.T) {
	geom := g(t)
	p := NewStride(geom)
	var got []mem.Addr
	// Constant stride of 16 lines: proposals near the page end must stop
	// at the boundary.
	for i := 0; i < 4; i++ {
		got = p.Observe(mem.Addr(i*16*64), got[:0])
	}
	for _, a := range got {
		if geom.PageOf(a) != 0 {
			t.Fatalf("stride proposal crossed page: %v", lines(geom, got))
		}
	}
}

func TestStrideIgnoresHugeJumps(t *testing.T) {
	geom := g(t)
	p := NewStride(geom)
	var got []mem.Addr
	for i := 0; i < 10; i++ {
		got = p.Observe(mem.Addr(i*2*4096), got[:0]) // 2-page jumps
		if len(got) != 0 {
			t.Fatal("stride trained on multi-page jumps")
		}
	}
}

// TestCompositeDeduplicates drives standalone next-line, streamer and
// stride parts in lockstep with NewIntelLike: every observation must
// propose the parts' candidates in part order, each line once. Ascending
// runs make the next-line prefetcher and the streamer propose the same
// line, so the deduplication has to fire.
func TestCompositeDeduplicates(t *testing.T) {
	geom := g(t)
	p := NewIntelLike(geom)
	nl, st, sd := NewNextLine(geom), NewStreamer(geom), NewStride(geom)
	x := rng.New(9)
	var a mem.Addr
	var got, parts, want []mem.Addr
	overlaps := 0
	for i := 0; i < 20000; i++ {
		if x.Intn(16) == 0 {
			a = mem.Addr(x.Intn(1 << 24)) // new stream
		} else {
			a += mem.Addr(geom.LineBytes * (1 + x.Intn(2)))
		}
		got = p.Observe(a, got[:0])
		parts = nl.Observe(a, parts[:0])
		parts = st.Observe(a, parts)
		parts = sd.Observe(a, parts)
		want = want[:0]
		for _, c := range parts {
			if !slices.ContainsFunc(want, func(w mem.Addr) bool { return geom.LineOf(w) == geom.LineOf(c) }) {
				want = append(want, c)
			}
		}
		if len(want) < len(parts) {
			overlaps++
		}
		if !slices.Equal(got, want) {
			t.Fatalf("op %d: composite proposed %v, want %v (parts %v)", i, lines(geom, got), lines(geom, want), lines(geom, parts))
		}
	}
	if overlaps == 0 {
		t.Fatal("no observation had overlapping part proposals; the dedup went unexercised")
	}
}

func TestIntelLikeCoversSequential(t *testing.T) {
	geom := g(t)
	p := NewIntelLike(geom)
	// Sequential accesses: nearly every next access should have been
	// proposed beforehand.
	proposed := map[mem.Line]bool{}
	covered := 0
	const n = 64
	for i := 0; i < n; i++ {
		a := mem.Addr(i * 64)
		if proposed[geom.LineOf(a)] {
			covered++
		}
		for _, c := range p.Observe(a, nil) {
			proposed[geom.LineOf(c)] = true
		}
	}
	if covered < n*3/4 {
		t.Fatalf("sequential coverage %d/%d too low", covered, n)
	}
}

func TestIntelLikeFooledByStreamlinePattern(t *testing.T) {
	geom := g(t)
	p := NewIntelLike(geom)
	// Equations 1-3 of the paper with x=3, y=2, starting at line 14.
	proposed := map[mem.Line]bool{}
	covered, total := 0, 0
	for i := 0; i < 2000; i++ {
		pg := 2*(3*i/128) + i%2
		cl := (14 + 3*(i/2)) % 64
		a := mem.Addr(pg*4096 + cl*64)
		total++
		if proposed[geom.LineOf(a)] {
			covered++
		}
		for _, c := range p.Observe(a, nil) {
			proposed[geom.LineOf(c)] = true
		}
	}
	if covered > total/20 {
		t.Fatalf("Streamline pattern was prefetched %d/%d times; should fool the prefetcher", covered, total)
	}
}

func BenchmarkIntelLikeObserve(b *testing.B) {
	geom, _ := mem.NewGeometry(64, 4096)
	p := NewIntelLike(geom)
	buf := make([]mem.Addr, 0, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pg := 2*(3*i/128) + i%2
		cl := (14 + 3*(i/2)) % 64
		buf = p.Observe(mem.Addr(pg*4096+cl*64), buf[:0])
	}
}

// scanLookup is the hint-free lookup: the first slot tracking page, or -1.
func scanLookup(p *Streamer, page uint64) int {
	for i, pg := range p.pages {
		if pg == page {
			return i
		}
	}
	return -1
}

// TestStreamerHintsMatchScan drives two streamers with interleaved page
// streams. Before every observation the reference has both hints pointed
// at a slot that cannot match, so it always takes the scan; the hinted
// streamer must propose the same lines and keep the same table, and it
// must answer some lookups from prev.
func TestStreamerHintsMatchScan(t *testing.T) {
	geom := g(t)
	for _, npages := range []int{2, 3, 5, 16, 17, 40} {
		hinted, ref := NewStreamer(geom), NewStreamer(geom)
		x := rng.New(uint64(npages))
		lip := make([]int, npages)
		var hb, rb []mem.Addr
		prevHits, cur := 0, 0
		for i := 0; i < 50_000; i++ {
			switch x.Intn(8) {
			case 0:
				cur = x.Intn(npages) // jump to any page
			case 1, 2, 3, 4:
				cur = (cur + 1) % npages // rotate through the pages
			case 5, 6:
				cur = (cur + npages - 1) % npages // back to the previous page
			}
			lip[cur] = (lip[cur] + 1 + x.Intn(2)) % geom.LinesPerPage()
			a := mem.Addr(cur*geom.PageBytes + lip[cur]*geom.LineBytes)
			page := geom.PageOf(a)
			if hinted.pages[hinted.last] != page && hinted.pages[hinted.prev] == page {
				prevHits++
			}
			if j := scanLookup(ref, page); j >= 0 {
				ref.last = (j + 1) % len(ref.pages)
				ref.prev = ref.last
			}
			hb = hinted.Observe(a, hb[:0])
			rb = ref.Observe(a, rb[:0])
			statetest.Equal(t, "proposals", hb, rb)
			statetest.Equal(t, "pages", hinted.pages, ref.pages)
			statetest.Equal(t, "meta", hinted.meta, ref.meta)
			if t.Failed() {
				t.Fatalf("pages=%d: divergence at op %d", npages, i)
			}
		}
		if prevHits == 0 {
			t.Errorf("pages=%d: no lookup was answered by the prev hint", npages)
		}
	}
}

// TestStreamerHintLifecycle checks that Clone carries both lookup hints, so
// a cloned streamer is field-for-field the one it was copied from, and that
// a clone of a fresh streamer starts without them.
func TestStreamerHintLifecycle(t *testing.T) {
	geom := g(t)
	src := NewStreamer(geom)
	var buf []mem.Addr
	for _, pg := range []int{0, 1, 2, 1, 2, 1} {
		buf = src.Observe(mem.Addr(pg*geom.PageBytes), buf[:0])
	}
	if src.last == 0 || src.prev == 0 {
		t.Fatalf("hints not advanced: last %d prev %d", src.last, src.prev)
	}
	statetest.Equal(t, "cloned streamer", *src.Clone(), *src)
	statetest.Equal(t, "cloned fresh streamer", *NewStreamer(geom).Clone(), *NewStreamer(geom))
}
