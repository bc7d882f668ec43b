package dram

import (
	"testing"

	"streamline/internal/mem"
	"streamline/internal/rng"
)

func TestNewPanicsOnBadBanks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-power-of-two banks")
		}
	}()
	cfg := DefaultConfig()
	cfg.Banks = 3
	New(cfg, 1)
}

func TestValidateGeometry(t *testing.T) {
	for _, tc := range []struct {
		banks, rowBytes int
		ok              bool
	}{
		{16, 8192, true},
		{1, 1, true},
		{3, 8192, false},
		{0, 8192, false},
		{16, 0, false},
		{16, -8192, false},
		{16, 6144, false},
	} {
		cfg := DefaultConfig()
		cfg.Banks, cfg.RowBytes = tc.banks, tc.rowBytes
		if err := cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("Banks %d RowBytes %d: Validate() = %v, want ok=%v", tc.banks, tc.rowBytes, err, tc.ok)
		}
		func() {
			defer func() {
				if panicked := recover() != nil; panicked == tc.ok {
					t.Errorf("Banks %d RowBytes %d: New panicked=%v, want %v", tc.banks, tc.rowBytes, panicked, !tc.ok)
				}
			}()
			New(cfg, 1)
		}()
	}
}

// TestRowOfMatchesDivision checks the precomputed shift against the
// division it replaced, for every power-of-two row span.
func TestRowOfMatchesDivision(t *testing.T) {
	x := rng.New(3)
	for sh := 0; sh < 31; sh++ {
		cfg := DefaultConfig()
		cfg.RowBytes = 1 << sh
		m := New(cfg, 1)
		addrs := []uint64{0, 1, uint64(cfg.RowBytes) - 1, uint64(cfg.RowBytes), uint64(cfg.RowBytes) + 1,
			mem.MaxAddrSpace - 1, mem.MaxAddrSpace, 1<<63 - 1}
		for i := 0; i < 10000; i++ {
			addrs = append(addrs, x.Uint64()&(1<<63-1))
		}
		for _, a := range addrs {
			if got, want := m.rowOf(mem.Addr(a)), int64(a/uint64(cfg.RowBytes)); got != want {
				t.Fatalf("RowBytes %d: rowOf(%#x) = %d, want %d", cfg.RowBytes, a, got, want)
			}
		}
	}
}

func TestMeanLatencyNearPaper(t *testing.T) {
	mean := MeanIdle(DefaultConfig(), 42, 200000)
	if mean < 260 || mean > 310 {
		t.Fatalf("idle mean latency = %.1f, want ~285", mean)
	}
}

func TestFastTailFrequency(t *testing.T) {
	cfg := DefaultConfig()
	m := New(cfg, 7)
	const n = 1000000
	now := uint64(0)
	fast := 0
	for i := 0; i < n; i++ {
		lat := m.Latency(now, mem.Addr(uint64(i)*64*37))
		if lat < 180 {
			fast++
		}
		now += 300
	}
	rate := float64(fast) / n
	if rate < cfg.FastTailProb*0.5 || rate > cfg.FastTailProb*2.0 {
		t.Fatalf("sub-threshold rate %.5f, want near %.5f", rate, cfg.FastTailProb)
	}
}

func TestNoFastTailWhenDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FastTailProb = 0
	m := New(cfg, 7)
	now := uint64(0)
	for i := 0; i < 200000; i++ {
		if lat := m.Latency(now, mem.Addr(uint64(i)*64*37)); lat < 180 {
			t.Fatalf("sub-threshold latency %d with tail disabled", lat)
		}
		now += 300
	}
}

func TestRowBufferHitFasterThanConflict(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterSD = 0
	cfg.FastTailProb = 0
	m := New(cfg, 1)
	a := mem.Addr(0)
	sameRow := mem.Addr(64 * 16) // same row (8 KB), same bank (16 banks * 64 B stride)
	otherRow := mem.Addr(uint64(cfg.RowBytes) * uint64(cfg.Banks))
	now := uint64(0)
	m.Latency(now, a) // opens the row
	now += 100        // within the idle-close window
	hit := m.Latency(now, sameRow)
	now += 100
	conflict := m.Latency(now, otherRow) // same bank, different row
	if hit >= conflict {
		t.Fatalf("row hit (%d) not faster than conflict (%d)", hit, conflict)
	}
}

func TestRowClosesWhenIdle(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterSD = 0
	cfg.FastTailProb = 0
	m := New(cfg, 1)
	m.Latency(0, 0)
	// Long idle: the open row is closed, so a same-row access is a row
	// miss, not a row hit.
	lat := m.Latency(uint64(cfg.RowCloseCycles)*10, mem.Addr(64*16))
	if lat != cfg.RowMiss {
		t.Fatalf("latency after idle = %d, want row-miss %d", lat, cfg.RowMiss)
	}
}

func TestQueueingInflatesLatency(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterSD = 0
	cfg.FastTailProb = 0
	idle := MeanIdle(cfg, 3, 50000)

	// Back-to-back accesses at time 0 to the same bank queue up.
	m := New(cfg, 3)
	var sum int
	const n = 32
	for i := 0; i < n; i++ {
		sum += m.Latency(0, mem.Addr(uint64(i)*64*uint64(cfg.Banks))) // all same bank
	}
	loaded := float64(sum) / n
	if loaded <= idle {
		t.Fatalf("loaded mean %.1f not above idle mean %.1f", loaded, idle)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int {
		m := New(DefaultConfig(), 99)
		out := make([]int, 0, 1000)
		now := uint64(0)
		for i := 0; i < 1000; i++ {
			out = append(out, m.Latency(now, mem.Addr(uint64(i*257)*64)))
			now += 250
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at access %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestLatencyNeverBelowMin(t *testing.T) {
	cfg := DefaultConfig()
	m := New(cfg, 5)
	now := uint64(0)
	for i := 0; i < 100000; i++ {
		if lat := m.Latency(now, mem.Addr(uint64(i)*64)); lat < cfg.MinLatency {
			t.Fatalf("latency %d below floor %d", lat, cfg.MinLatency)
		}
		now += 100
	}
}

func TestStatsAccumulate(t *testing.T) {
	m := New(DefaultConfig(), 1)
	now := uint64(0)
	for i := 0; i < 1000; i++ {
		m.Latency(now, mem.Addr(uint64(i)*64))
		now += 300
	}
	if m.Accesses != 1000 {
		t.Fatalf("accesses = %d", m.Accesses)
	}
	if m.RowHits+m.RowMisses+m.Conflicts != 1000 {
		t.Fatalf("row outcome counts do not sum: %d+%d+%d",
			m.RowHits, m.RowMisses, m.Conflicts)
	}
}

func BenchmarkLatency(b *testing.B) {
	m := New(DefaultConfig(), 1)
	now := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Latency(now, mem.Addr(uint64(i)*64*7))
		now += 265
	}
}
