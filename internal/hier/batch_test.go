package hier

import (
	"fmt"
	"testing"

	"streamline/internal/cache"
	"streamline/internal/mem"
	"streamline/internal/params"
	"streamline/internal/rng"
	"streamline/internal/tlb"
)

// scalarBatch replays AccessBatch's documented scalar-equivalence contract
// verbatim: the same addresses through Access one at a time, accumulating
// under the same cost model. AccessBatch must be indistinguishable from
// this loop in both its return value and every side effect on h.
func scalarBatch(h *Hierarchy, core int, addrs []mem.Addr, now uint64, clk BatchClock) BatchResult {
	div := uint64(1)
	if clk.Div > 1 {
		div = uint64(clk.Div)
	}
	var res BatchResult
	t := now
	for _, a := range addrs {
		r := h.Access(core, a, t)
		c := uint64(r.Latency)/div + clk.Extra
		res.Cost += c
		res.LatencySum += uint64(r.Latency)
		res.Served[r.Level]++
		if !clk.Hold {
			t += c
		}
	}
	return res
}

// cacheFingerprint folds a cache's observable state into its Stats plus an
// exhaustive tag walk, so two hierarchies that ever diverge in contents,
// not just in counters, fail the comparison.
func cacheFingerprint(c *cache.Cache) (cache.Stats, uint64) {
	var sum uint64
	for s := 0; s < c.Sets(); s++ {
		for w := 0; w < c.Ways(); w++ {
			if l, ok := c.LineAt(s, w); ok {
				sum = sum*0x9e3779b97f4a7c15 + uint64(l) + 1
			}
		}
	}
	return c.Stats, sum
}

func compareHier(t *testing.T, got, want *Hierarchy, ctx string) {
	t.Helper()
	if got.Served != want.Served {
		t.Fatalf("%s: Served %v != scalar %v", ctx, got.Served, want.Served)
	}
	for c := range want.ServedPerCore {
		if got.ServedPerCore[c] != want.ServedPerCore[c] {
			t.Fatalf("%s: core %d ServedPerCore %v != scalar %v",
				ctx, c, got.ServedPerCore[c], want.ServedPerCore[c])
		}
	}
	if got.SkippedFills != want.SkippedFills {
		t.Fatalf("%s: SkippedFills %d != scalar %d", ctx, got.SkippedFills, want.SkippedFills)
	}
	check := func(name string, g, w *cache.Cache) {
		gs, gsum := cacheFingerprint(g)
		ws, wsum := cacheFingerprint(w)
		if gs != ws {
			t.Fatalf("%s: %s stats %+v != scalar %+v", ctx, name, gs, ws)
		}
		if gsum != wsum {
			t.Fatalf("%s: %s contents diverged", ctx, name)
		}
	}
	for c := range want.l1 {
		check(fmt.Sprintf("L1[%d]", c), got.l1[c], want.l1[c])
		check(fmt.Sprintf("L2[%d]", c), got.l2[c], want.l2[c])
	}
	for d := range want.llcs {
		check(fmt.Sprintf("LLC[%d]", d), got.llcs[d], want.llcs[d])
	}
	if got.fillRnd == nil { // random fill skips LLC installs by design
		if line, ok := got.CheckInclusion(); !ok {
			t.Fatalf("%s: inclusion violated for line %d after batch", ctx, line)
		}
	}
}

// traceChunk fills dst with the next chunk of a trace that deliberately
// mixes the regimes the batch kernel treats differently: repeated-line L1
// hit runs (served by accessFast's L1 lookup), sequential line walks that train the
// next-line and stream prefetchers, strided page-crossing walks that train
// the stride prefetcher across 4 KB boundaries, and uniform-random lines
// that miss every level.
func traceChunk(r *rng.Xoshiro, dst []mem.Addr, span uint64) {
	i := 0
	for i < len(dst) {
		run := 1 + r.Intn(24)
		if run > len(dst)-i {
			run = len(dst) - i
		}
		switch r.Intn(4) {
		case 0: // hit run: one line hammered back to back
			a := mem.Addr(r.Uint64() % span)
			for j := 0; j < run; j++ {
				dst[i] = a
				i++
			}
		case 1: // sequential lines: triggers next-line/streamer prefetches
			a := r.Uint64() % span
			for j := 0; j < run; j++ {
				dst[i] = mem.Addr(a + uint64(j)*64)
				i++
			}
		case 2: // page-crossing stride: trains then breaks the stride tracker
			a := r.Uint64() % span
			stride := uint64(64 * (1 + r.Intn(80))) // up to ~5 KB: crosses pages
			for j := 0; j < run; j++ {
				dst[i] = mem.Addr(a + uint64(j)*stride)
				i++
			}
		default: // uniform random
			for j := 0; j < run; j++ {
				dst[i] = mem.Addr(r.Uint64() % span)
				i++
			}
		}
	}
	for j := range dst {
		dst[j] &^= 63 // line-align, keeps geometry assumptions trivial
	}
}

// TestAccessBatchMatchesScalar is the batch kernel's referee: on every
// machine model and LLC policy, driving one hierarchy with AccessBatch and
// a twin with the scalar contract loop must produce identical results and
// identical machine state, across all BatchClock modes, multiple cores, and
// traces long enough (>= 1M accesses per machine in full mode) to cycle
// every cache level, prefetcher table, and DRAM bank many times over.
func TestAccessBatchMatchesScalar(t *testing.T) {
	machines := []struct {
		name string
		mk   func() *params.Machine
	}{
		{"skylake-e3", params.SkylakeE3},
		{"kabylake-i7", params.KabyLakeI7},
		{"coffeelake-i5", params.CoffeeLakeI5},
		{"arm-a72", params.ARMCortexA72},
	}
	policies := []struct {
		name string
		mk   func() cache.Policy
	}{
		{"default-rrip", func() cache.Policy { return nil }},
		{"lru", func() cache.Policy { return cache.NewLRU() }},
		{"srrip", func() cache.Policy { return cache.NewRRIP(cache.SRRIP, 21) }},
	}
	clocks := []struct {
		name string
		clk  BatchClock
	}{
		{"plain", BatchClock{}},
		{"mlp", BatchClock{Div: 4, Extra: 2}},
		{"hold", BatchClock{Hold: true, Extra: 4}},
	}
	const span = 1 << 26 // 64 MB of simulated addresses
	chunks := 48         // x ~86 addrs avg per (chunk, clock) => ~1.2M per machine
	if testing.Short() {
		chunks = 8
	}
	for _, m := range machines {
		for _, p := range policies {
			t.Run(m.name+"/"+p.name, func(t *testing.T) {
				opt := Options{Seed: 11, LLCPolicy: p.mk()}
				hb := newHier(t, m.mk(), opt)
				opt.LLCPolicy = p.mk()
				hs := newHier(t, m.mk(), opt)
				r := rng.New(rng.HashString(m.name + "/" + p.name))
				buf := make([]mem.Addr, 0, 256)
				now := uint64(0)
				for c := 0; c < chunks; c++ {
					for _, cl := range clocks {
						buf = buf[:1+r.Intn(cap(buf))]
						traceChunk(r, buf, span)
						core := r.Intn(hb.mach.Cores)
						got := hb.AccessBatch(core, buf, now, cl.clk)
						want := scalarBatch(hs, core, buf, now, cl.clk)
						if got != want {
							t.Fatalf("chunk %d clock %s: batch %+v != scalar %+v",
								c, cl.name, got, want)
						}
						now += got.Cost + 1000
					}
				}
				compareHier(t, hb, hs, "final state")
			})
		}
	}
}

// TestAccessBatchMatchesScalarGeneralPath pins the equivalence on the
// configurations that disable the fast path — partitioned LLCs, a TLB
// model, and random fill — where AccessBatch must degrade to the scalar
// general path access for access.
func TestAccessBatchMatchesScalarGeneralPath(t *testing.T) {
	configs := []struct {
		name string
		opt  func() Options
	}{
		{"partitioned", func() Options {
			return Options{Seed: 3, PartitionWays: 4, CoreDomains: []int{0, 1, 0, 1}}
		}},
		{"tlb", func() Options {
			c := tlb.Skylake4K()
			return Options{Seed: 3, TLB: &c}
		}},
		{"random-fill", func() Options { return Options{Seed: 3, RandomFillProb: 0.5} }},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			hb := newHier(t, params.SkylakeE3(), cfg.opt())
			hs := newHier(t, params.SkylakeE3(), cfg.opt())
			r := rng.New(rng.HashString(cfg.name))
			buf := make([]mem.Addr, 192)
			now := uint64(0)
			for c := 0; c < 64; c++ {
				traceChunk(r, buf, 1<<24)
				core := r.Intn(4)
				clk := BatchClock{Div: r.Intn(3), Extra: uint64(r.Intn(5)), Hold: r.Uint64()&1 == 1}
				got := hb.AccessBatch(core, buf, now, clk)
				want := scalarBatch(hs, core, buf, now, clk)
				if got != want {
					t.Fatalf("chunk %d: batch %+v != scalar %+v", c, got, want)
				}
				now += got.Cost + 500
			}
			compareHier(t, hb, hs, cfg.name)
		})
	}
}

// TestAccessBatchZeroAllocs pins the batch kernel's allocation-free
// contract on both the fast and the general configuration.
func TestAccessBatchZeroAllocs(t *testing.T) {
	for _, cfg := range []struct {
		name string
		opt  Options
	}{
		{"fast", Options{Seed: 7}},
		{"general", Options{Seed: 7, RandomFillProb: 0.1}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			h := newHier(t, params.SkylakeE3(), cfg.opt)
			r := rng.New(1)
			buf := make([]mem.Addr, 256)
			traceChunk(r, buf, 1<<24)
			h.AccessBatch(0, buf, 0, BatchClock{})
			now := uint64(1 << 20)
			if avg := testing.AllocsPerRun(50, func() {
				h.AccessBatch(0, buf, now, BatchClock{Div: 4, Extra: 2})
				now += 1 << 16
			}); avg != 0 {
				t.Fatalf("AccessBatch allocates %.1f times per call, want 0", avg)
			}
		})
	}
}
