package hier

import (
	"testing"
	"testing/quick"

	"streamline/internal/cache"
	"streamline/internal/mem"
	"streamline/internal/params"
	"streamline/internal/rng"
)

// tiny returns a small machine so capacity effects are quick to trigger.
func tiny(t *testing.T) *params.Machine {
	t.Helper()
	m := params.SkylakeE3()
	m.L1 = params.CacheGeom{SizeBytes: 2 << 10, Ways: 2, LineBytes: 64}
	m.L2 = params.CacheGeom{SizeBytes: 8 << 10, Ways: 2, LineBytes: 64}
	m.LLC = params.CacheGeom{SizeBytes: 64 << 10, Ways: 4, LineBytes: 64}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

func newHier(t *testing.T, m *params.Machine, opt Options) *Hierarchy {
	t.Helper()
	h, err := New(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNewValidates(t *testing.T) {
	m := params.SkylakeE3()
	m.FreqMHz = 0
	if _, err := New(m, Options{}); err == nil {
		t.Fatal("accepted invalid machine")
	}
	// A back-invalidation mask has one bit per core; New refuses the
	// machine before it builds any cache.
	m = params.SkylakeE3()
	m.Cores = 65
	if _, err := New(m, Options{}); err == nil {
		t.Fatal("accepted a 65-core machine")
	}
}

func TestColdMissThenHits(t *testing.T) {
	m := tiny(t)
	h := newHier(t, m, Options{DisablePrefetch: true, Seed: 1})
	a := mem.Addr(4096)
	r := h.Access(0, a, 0)
	if r.Level != DRAM {
		t.Fatalf("cold access served by %v", r.Level)
	}
	if r.Latency <= m.Lat.LLCHit {
		t.Fatalf("DRAM latency %d not above LLC hit", r.Latency)
	}
	r = h.Access(0, a, 1000)
	if r.Level != L1 || r.Latency != m.Lat.L1Hit {
		t.Fatalf("second access = %+v, want L1 hit", r)
	}
}

func TestCrossCoreLLCHit(t *testing.T) {
	m := tiny(t)
	h := newHier(t, m, Options{DisablePrefetch: true, Seed: 1})
	a := mem.Addr(8192)
	h.Access(0, a, 0) // core 0 installs everywhere
	r := h.Access(1, a, 500)
	if r.Level != LLC || r.Latency != m.Lat.LLCHit {
		t.Fatalf("cross-core access = %+v, want LLC hit", r)
	}
}

func TestL2HitAfterL1Eviction(t *testing.T) {
	m := tiny(t)
	h := newHier(t, m, Options{DisablePrefetch: true, Seed: 1})
	a := mem.Addr(0)
	h.Access(0, a, 0)
	// Thrash the L1 (32 lines) with conflicting addresses that fit in L2.
	for i := 1; i <= 4; i++ {
		h.Access(0, a+mem.Addr(i*(2<<10)), uint64(i*300))
	}
	h.InvalidatePrivate(0, a) // force it out of both private levels
	h.Access(0, a, 5000)      // back via LLC
	r := h.Access(0, a, 6000)
	if r.Level != L1 {
		t.Fatalf("expected L1 hit after refill, got %v", r.Level)
	}
}

func TestFlushRemovesEverywhere(t *testing.T) {
	m := tiny(t)
	h := newHier(t, m, Options{DisablePrefetch: true, Seed: 1})
	a := mem.Addr(4096)
	h.Access(0, a, 0)
	h.Access(1, a, 100)
	lat, was := h.Flush(1, a)
	if !was || lat != m.Lat.FlushLatency {
		t.Fatalf("flush of cached line: lat=%d cached=%v", lat, was)
	}
	if h.ProbeLLC(a) || h.ProbePrivate(0, a) || h.ProbePrivate(1, a) {
		t.Fatal("line survived flush")
	}
	lat, was = h.Flush(0, a)
	if was || lat != m.Lat.FlushMiss {
		t.Fatalf("flush of uncached line: lat=%d cached=%v", lat, was)
	}
	if r := h.Access(0, a, 1000); r.Level != DRAM {
		t.Fatalf("access after flush served by %v", r.Level)
	}
}

func TestInclusionMaintainedUnderThrash(t *testing.T) {
	m := tiny(t)
	h := newHier(t, m, Options{DisablePrefetch: true, Seed: 3})
	now := uint64(0)
	for i := 0; i < 20000; i++ {
		core := i % m.Cores
		a := mem.Addr(uint64(i*31%4096) * 64)
		h.Access(core, a, now)
		now += 100
	}
	if line, ok := h.CheckInclusion(); !ok {
		t.Fatalf("inclusion violated for line %d", line)
	}
}

// TestCheckInclusionCatchesClearedDirBit pins that the probe checks the
// fast path's directory, not only inclusion: with one holder's bit cleared
// the line is still in the LLC, yet CheckInclusion must report it.
func TestCheckInclusionCatchesClearedDirBit(t *testing.T) {
	m := tiny(t)
	h := newHier(t, m, Options{DisablePrefetch: true, Seed: 3})
	if h.dir == nil {
		t.Fatal("default options did not take the fast path")
	}
	a := mem.Addr(4096)
	h.Access(0, a, 0)
	h.Access(1, a, 100)
	if line, ok := h.CheckInclusion(); !ok {
		t.Fatalf("inclusion violated for line %d before the corruption", line)
	}
	if !h.clearDirBit(1, a) {
		t.Fatal("line not in the LLC")
	}
	if line, ok := h.CheckInclusion(); ok || line != h.geom.LineOf(a) {
		t.Fatalf("CheckInclusion = (%d, %v) with core 1's dir bit cleared, want (%d, false)", line, ok, h.geom.LineOf(a))
	}
}

// Property: any random access interleaving preserves inclusion and keeps
// latencies within sane bounds.
func TestAccessProperties(t *testing.T) {
	m := tiny(t)
	h := newHier(t, m, Options{Seed: 5})
	now := uint64(0)
	f := func(raw []uint16) bool {
		for i, v := range raw {
			core := i % m.Cores
			r := h.Access(core, mem.Addr(uint64(v)*64), now)
			if r.Latency < m.Lat.L1Hit || r.Latency > 2000 {
				return false
			}
			now += 200
		}
		_, ok := h.CheckInclusion()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestBackInvalidationOnLLCEviction(t *testing.T) {
	m := tiny(t)
	h := newHier(t, m, Options{DisablePrefetch: true, Seed: 1,
		LLCPolicy: cache.NewLRU()})
	// LLC: 256 sets... with tiny machine: 64KB/4w/64B = 256 sets. Fill one
	// LLC set (4 ways) plus one more line mapping to the same set.
	llcSets := m.LLC.Sets()
	var target mem.Addr
	now := uint64(0)
	for i := 0; i <= 4; i++ {
		a := mem.Addr(uint64(i*llcSets) * 64) // same LLC set, different tags
		if i == 0 {
			target = a
		}
		h.Access(0, a, now)
		now += 300
	}
	// Line 0 was LRU in the LLC and must have been evicted and
	// back-invalidated from core 0's private caches.
	if h.ProbeLLC(target) {
		t.Skip("policy kept target; try more pressure")
	}
	if h.ProbePrivate(0, target) {
		t.Fatal("private copy survived LLC eviction (inclusion violation)")
	}
}

func TestPrefetcherServesSequentialStream(t *testing.T) {
	m := tiny(t)
	withPf := newHier(t, m, Options{Seed: 9})
	noPf := newHier(t, m, Options{Seed: 9, DisablePrefetch: true})
	now := uint64(0)
	var pfDram, noDram uint64
	for i := 0; i < 512; i++ {
		a := mem.Addr(uint64(i) * 64)
		withPf.Access(0, a, now)
		noPf.Access(0, a, now)
		now += 300
	}
	pfDram = withPf.Served[DRAM]
	noDram = noPf.Served[DRAM]
	if pfDram >= noDram {
		t.Fatalf("prefetcher did not reduce DRAM accesses: %d vs %d", pfDram, noDram)
	}
}

func TestServedCountsSum(t *testing.T) {
	m := tiny(t)
	h := newHier(t, m, Options{DisablePrefetch: true, Seed: 2})
	const n = 5000
	now := uint64(0)
	for i := 0; i < n; i++ {
		h.Access(0, mem.Addr(uint64(i%1000)*64), now)
		now += 150
	}
	var total uint64
	for _, v := range h.Served {
		total += v
	}
	if total != n {
		t.Fatalf("served counts sum to %d, want %d", total, n)
	}
}

func TestCheckCorePanics(t *testing.T) {
	m := tiny(t)
	h := newHier(t, m, Options{Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range core did not panic")
		}
	}()
	h.Access(99, 0, 0)
}

func BenchmarkAccessChannelPattern(b *testing.B) {
	m := params.SkylakeE3()
	h, err := New(m, Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	now := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pg := 2*(3*i/128) + i%2
		cl := (14 + 3*(i/2)) % 64
		h.Access(i%2, mem.Addr(pg*4096+cl*64), now)
		now += 265
	}
}

func TestPartitioningBlocksCrossDomainHits(t *testing.T) {
	m := params.SkylakeE3()
	h, err := New(m, Options{
		DisablePrefetch: true,
		Seed:            3,
		PartitionWays:   8,
		CoreDomains:     []int{0, 1, 0, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	a := mem.Addr(8192)
	h.Access(0, a, 0) // domain 0 installs
	r := h.Access(1, a, 500)
	if r.Level != DRAM {
		t.Fatalf("cross-domain access served by %v; partitions must not share", r.Level)
	}
	// Same-domain sharing still works (cores 0 and 2 share domain 0).
	r = h.Access(2, a, 1000)
	if r.Level != LLC {
		t.Fatalf("same-domain access served by %v, want LLC", r.Level)
	}
}

func TestPartitioningValidation(t *testing.T) {
	m := params.SkylakeE3()
	if _, err := New(m, Options{PartitionWays: 32}); err == nil {
		t.Error("partition wider than the LLC accepted")
	}
	if _, err := New(m, Options{PartitionWays: 8,
		CoreDomains: []int{0, 1, 2, 3}}); err == nil {
		t.Error("4 domains x 8 ways > 16 accepted")
	}
	if _, err := New(m, Options{PartitionWays: 8,
		CoreDomains: []int{0, -1, 0, 0}}); err == nil {
		t.Error("negative domain accepted")
	}
	if _, err := New(m, Options{PartitionWays: 8, CoreDomains: []int{0, 1}}); err == nil {
		t.Error("2 core domains for 4 cores accepted")
	}
}

// TestPartitionedInclusion checks inclusion under both isolation modes.
// Partitioned evictions back-invalidate only the evicting domain's cores;
// the quota-managed LLC is shared, so its evictions (demand and prefetch)
// must reach every core, with or without copy-on-access.
func TestPartitionedInclusion(t *testing.T) {
	domains := []int{0, 1, 0, 1}
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"partitioned", Options{PartitionWays: 2, CoreDomains: domains}},
		{"quota", Options{Quota: &QuotaConfig{RebalancePeriod: 256}, CoreDomains: domains}},
		{"quota-copy-on-access", Options{Quota: &QuotaConfig{RebalancePeriod: 256, CopyOnAccess: true}, CoreDomains: domains}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tiny(t)
			tc.opt.Seed = 7
			h := newHier(t, m, tc.opt)
			// Every core draws from one shared 256 KB footprint (four times
			// the LLC), so lines are shared across domains and evictions
			// must reach other domains' private copies.
			x := rng.New(7)
			now := uint64(0)
			for i := 0; i < 20000; i++ {
				h.Access(i%m.Cores, mem.Addr(uint64(x.Intn(4096))*64), now)
				now += 100
				if i%100 == 99 {
					if line, ok := h.CheckInclusion(); !ok {
						t.Fatalf("inclusion violated for line %d after %d accesses", line, i+1)
					}
				}
			}
			if h.LLC().Stats.Evictions == 0 {
				t.Fatal("no LLC evictions: the workload never exercised back-invalidation")
			}
		})
	}
}

func TestRandomFillSkipsLLCInstalls(t *testing.T) {
	m := tiny(t)
	h := newHier(t, m, Options{DisablePrefetch: true, Seed: 5, RandomFillProb: 1.0})
	// With p=1 every demand fill skips the LLC: repeated cross-core
	// accesses never produce an LLC hit.
	a := mem.Addr(4096)
	h.Access(0, a, 0)
	if h.ProbeLLC(a) {
		t.Fatal("line cached despite RandomFillProb=1")
	}
	if r := h.Access(1, a, 500); r.Level != DRAM {
		t.Fatalf("cross-core access served by %v", r.Level)
	}
	if h.SkippedFills == 0 {
		t.Fatal("no skipped fills counted")
	}
}

func TestRandomFillPartial(t *testing.T) {
	m := tiny(t)
	h := newHier(t, m, Options{DisablePrefetch: true, Seed: 5, RandomFillProb: 0.5})
	installed := 0
	const n = 2000
	for i := 0; i < n; i++ {
		a := mem.Addr(uint64(1+i) * 4096)
		h.Access(0, a, uint64(i)*300)
		if h.ProbeLLC(a) {
			installed++
		}
	}
	frac := float64(installed) / n
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("installed fraction %.2f, want ~0.5", frac)
	}
}

func TestServedPerCoreMatchesTotals(t *testing.T) {
	m := tiny(t)
	h := newHier(t, m, Options{DisablePrefetch: true, Seed: 2})
	now := uint64(0)
	for i := 0; i < 3000; i++ {
		h.Access(i%m.Cores, mem.Addr(uint64(i%512)*64), now)
		now += 150
	}
	var perCore [4]uint64
	for _, served := range h.ServedPerCore {
		for l, v := range served {
			perCore[l] += v
		}
	}
	if perCore != h.Served {
		t.Fatalf("per-core counters %v do not sum to totals %v", perCore, h.Served)
	}
}
