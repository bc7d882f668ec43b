package cache

import (
	"testing"

	"streamline/internal/rng"
)

// forceByteLayout switches an attached RRIP to the byte-per-way fallback,
// so the packed layout can be property-tested against it.
func forceByteLayout(p *RRIP) {
	p.agePk = nil
	p.incMask = 0
	p.age = make([]uint8, p.sets*p.ways)
	for i := range p.age {
		p.age[i] = maxAge
	}
}

// TestRRIPPackedMatchesByteLayout drives the packed and byte age layouts
// through the same randomized op stream and requires identical victim
// choices, ages, and DRRIP selector state. The packed layout is a pure
// storage change; any divergence alters LLC eviction order and breaks
// golden-output identity.
func TestRRIPPackedMatchesByteLayout(t *testing.T) {
	for _, mode := range []RRIPMode{SRRIP, BRRIP, DRRIP} {
		for _, ways := range []int{2, 12, 16, 18, 32} {
			const sets = 128
			pk := NewRRIP(mode, 7)
			pk.DistantFrac32 = 3
			pk.Attach(sets, ways)
			if pk.agePk == nil {
				t.Fatalf("ways=%d: expected packed layout", ways)
			}
			by := NewRRIP(mode, 7)
			by.DistantFrac32 = 3
			by.Attach(sets, ways)
			forceByteLayout(by)

			x := rng.New(uint64(mode)<<8 | uint64(ways))
			for op := 0; op < 200_000; op++ {
				s := x.Intn(sets)
				w := x.Intn(ways)
				switch x.Intn(6) {
				case 0:
					pk.OnHit(s, w)
					by.OnHit(s, w)
				case 1:
					pk.OnMiss(s)
					by.OnMiss(s)
				case 2:
					pk.OnInsert(s, w)
					by.OnInsert(s, w)
				case 3:
					pk.OnInsertPrefetch(s, w)
					by.OnInsertPrefetch(s, w)
				case 4:
					if got, want := pk.Victim(s), by.Victim(s); got != want {
						t.Fatalf("mode=%v ways=%d op %d: packed victim %d, byte victim %d", mode, ways, op, got, want)
					}
				case 5:
					pk.OnInvalidate(s, w)
					by.OnInvalidate(s, w)
				}
			}
			for s := 0; s < sets; s++ {
				for w := 0; w < ways; w++ {
					if pk.AgeOf(s, w) != by.AgeOf(s, w) {
						t.Fatalf("mode=%v ways=%d: age mismatch at set %d way %d", mode, ways, s, w)
					}
				}
			}
			if pk.PSel() != by.PSel() {
				t.Fatalf("mode=%v ways=%d: PSEL diverged", mode, ways)
			}
		}
	}
}

// TestRRIPHitToZeroPackedMatches covers the hit-promotion variant the
// packed OnHit special-cases.
func TestRRIPHitToZeroPackedMatches(t *testing.T) {
	const sets, ways = 64, 16
	pk := NewRRIP(SRRIP, 3)
	pk.hitToZero = true
	pk.Attach(sets, ways)
	by := NewRRIP(SRRIP, 3)
	by.hitToZero = true
	by.Attach(sets, ways)
	forceByteLayout(by)
	x := rng.New(99)
	for op := 0; op < 50_000; op++ {
		s, w := x.Intn(sets), x.Intn(ways)
		switch x.Intn(3) {
		case 0:
			pk.OnHit(s, w)
			by.OnHit(s, w)
		case 1:
			pk.OnInsert(s, w)
			by.OnInsert(s, w)
		case 2:
			if got, want := pk.Victim(s), by.Victim(s); got != want {
				t.Fatalf("op %d: packed victim %d, byte victim %d", op, got, want)
			}
		}
	}
}

// victimLoopRef is the packed Victim's former round-by-round scan, kept as
// the reference for the closed form: it returns the victim way, the set's
// age word afterwards and the next scan pointer.
func victimLoopRef(word uint64, ptr, ways int, incMask uint64) (victim int, after uint64, next int) {
	for {
		w := ptr
		for i := 0; i < ways; i++ {
			if word>>(2*uint(w))&3 == maxAge {
				next := w + 1
				if next == ways {
					next = 0
				}
				return w, word, next
			}
			w++
			if w == ways {
				w = 0
			}
		}
		word += incMask
	}
}

// checkVictimClosedForm loads word and ptr into set 0 of an attached
// packed RRIP and compares Victim with the reference loop.
func checkVictimClosedForm(t *testing.T, p *RRIP, word uint64, ptr int) {
	t.Helper()
	p.agePk[0], p.ptr[0] = word, uint16(ptr)
	wantW, wantWord, wantNext := victimLoopRef(word, ptr, p.ways, p.incMask)
	if got := p.Victim(0); got != wantW || p.agePk[0] != wantWord || int(p.ptr[0]) != wantNext {
		t.Fatalf("ways=%d word=%#x ptr=%d: victim %d word %#x next %d, reference %d %#x %d",
			p.ways, word, ptr, got, p.agePk[0], p.ptr[0], wantW, wantWord, wantNext)
	}
}

// TestRRIPVictimClosedFormMatchesLoop checks the packed Victim against the
// aging loop it replaced: exhaustively over every 8-way age word and scan
// pointer, then on random words for the wider packed associativities.
func TestRRIPVictimClosedFormMatchesLoop(t *testing.T) {
	p := NewRRIP(SRRIP, 1)
	p.Attach(1, 8)
	for word := uint64(0); word < 1<<16; word++ {
		for ptr := 0; ptr < 8; ptr++ {
			checkVictimClosedForm(t, p, word, ptr)
		}
	}
	x := rng.New(5)
	for _, ways := range []int{1, 2, 3, 12, 16, 31, 32} {
		p := NewRRIP(SRRIP, 1)
		p.Attach(1, ways)
		used := allAges(ways, maxAge)
		for i := 0; i < 200_000; i++ {
			word := x.Uint64() & used
			if i%4 == 0 {
				// Ages 0-2 only, so the aging branch runs.
				word &^= word & (word >> 1) & p.incMask
			}
			checkVictimClosedForm(t, p, word, x.Intn(ways))
		}
	}
}
