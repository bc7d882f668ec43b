package hier

import (
	"testing"

	"streamline/internal/mem"
	"streamline/internal/params"
	"streamline/internal/rng"
	"streamline/internal/statetest"
	"streamline/internal/tlb"
)

// lifecycleVariants enumerates (machine, options) pairs spanning both access
// paths (fast and general) and every optional component.
func lifecycleVariants() map[string]func(seed uint64) (*params.Machine, Options) {
	return map[string]func(seed uint64) (*params.Machine, Options){
		"skylake-default": func(seed uint64) (*params.Machine, Options) {
			return params.SkylakeE3(), Options{Seed: seed}
		},
		"skylake-nopf": func(seed uint64) (*params.Machine, Options) {
			return params.SkylakeE3(), Options{Seed: seed, DisablePrefetch: true}
		},
		"skylake-tlb": func(seed uint64) (*params.Machine, Options) {
			t := tlb.Skylake4K()
			return params.SkylakeE3(), Options{Seed: seed, TLB: &t}
		},
		"skylake-partition": func(seed uint64) (*params.Machine, Options) {
			return params.SkylakeE3(), Options{Seed: seed, PartitionWays: 2}
		},
		"skylake-randfill": func(seed uint64) (*params.Machine, Options) {
			return params.SkylakeE3(), Options{Seed: seed, RandomFillProb: 0.5}
		},
		"skylake-quota": func(seed uint64) (*params.Machine, Options) {
			return params.SkylakeE3(), Options{Seed: seed,
				Quota: &QuotaConfig{MinWays: 2, RebalancePeriod: 512, CopyOnAccess: true}}
		},
		"skylake-quota-static": func(seed uint64) (*params.Machine, Options) {
			return params.SkylakeE3(), Options{Seed: seed,
				Quota: &QuotaConfig{DomainWays: []int{6, 4, 3, 3}}}
		},
		"arm-default": func(seed uint64) (*params.Machine, Options) {
			return params.ARMCortexA72(), Options{Seed: seed}
		},
	}
}

func mustNew(t *testing.T, mk func(seed uint64) (*params.Machine, Options), seed uint64) *Hierarchy {
	t.Helper()
	m, opt := mk(seed)
	h, err := New(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// driveHier applies a pseudo-random mix of demand loads from every core,
// with occasional flushes, over a footprint large enough to thrash the LLC.
func driveHier(h *Hierarchy, x *rng.Xoshiro, n int) {
	cores := len(h.l1)
	now := uint64(0)
	for i := 0; i < n; i++ {
		now += x.Uint64() % 200
		core := int(x.Uint64() % uint64(cores))
		a := mem.Addr(x.Uint64() % (32 << 20))
		if x.Uint64()%16 == 0 {
			h.Flush(core, a)
		} else {
			h.Access(core, a, now)
		}
	}
}

// requireSameHier drives both hierarchies with an identical suffix workload
// and fails on the first diverging access result, then cross-checks the
// served-level counters.
func requireSameHier(t *testing.T, got, want *Hierarchy, seed uint64, n int) {
	t.Helper()
	statetest.Equal(t, "Served", got.Served, want.Served)
	statetest.Equal(t, "ServedPerCore", got.ServedPerCore, want.ServedPerCore)
	statetest.Equal(t, "SkippedFills", got.SkippedFills, want.SkippedFills)
	x := rng.New(seed)
	cores := len(got.l1)
	now := uint64(0)
	for i := 0; i < n; i++ {
		now += x.Uint64() % 200
		core := int(x.Uint64() % uint64(cores))
		a := mem.Addr(x.Uint64() % (32 << 20))
		if x.Uint64()%16 == 0 {
			gl, gc := got.Flush(core, a)
			wl, wc := want.Flush(core, a)
			if gl != wl || gc != wc {
				t.Fatalf("flush divergence at suffix op %d: (%d,%v) != (%d,%v)", i, gl, gc, wl, wc)
			}
		} else {
			g := got.Access(core, a, now)
			w := want.Access(core, a, now)
			if g != w {
				t.Fatalf("access divergence at suffix op %d: %+v != %+v", i, g, w)
			}
		}
	}
	if got.fillRnd == nil {
		// Random-fill configurations violate inclusion by design (the
		// requester keeps a private copy of lines the LLC skipped).
		if line, ok := got.CheckInclusion(); !ok {
			t.Fatalf("inclusion violated for line %#x", uint64(line))
		}
	}
}

func TestHierarchyCloneEquivalenceAndIndependence(t *testing.T) {
	for name, mk := range lifecycleVariants() {
		t.Run(name, func(t *testing.T) {
			src := mustNew(t, mk, 7)
			driveHier(src, rng.New(123), 30000)
			c1 := src.Clone()
			c2 := src.Clone()
			driveHier(c1, rng.New(321), 30000) // perturb one clone
			requireSameHier(t, src, c2, 555, 30000)
		})
	}
}

// TestReplayWarmupEqualsFreshWarmup pins the warmup-snapshot contract: for a
// seed never seen by the recorder, Clone + ReplayWarmup reproduces a freshly
// built, freshly warmed hierarchy exactly.
func TestReplayWarmupEqualsFreshWarmup(t *testing.T) {
	warmup := func(h *Hierarchy) {
		// A 1 MB sequential walk from core 0 at time zero, the shape Run's
		// setup-time page faulting produces.
		for off := 0; off < 1<<20; off += 64 {
			h.Access(0, mem.Addr(4096+off), 0)
		}
	}
	builder, err := New(params.SkylakeE3(), Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	builder.StartRecording()
	warmup(builder)
	log := builder.StopRecording()
	if log.Aborted() {
		t.Fatal("default-shape warmup aborted the recording")
	}

	for _, seed := range []uint64{7, 99, 0xdeadbeef} {
		replayed := builder.Clone()
		if err := replayed.ReplayWarmup(seed, log); err != nil {
			t.Fatal(err)
		}
		fresh, err := New(params.SkylakeE3(), Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		warmup(fresh)
		requireSameHier(t, replayed, fresh, 555, 30000)
	}
}
