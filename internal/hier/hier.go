// Package hier assembles the full memory hierarchy the covert channels run
// on: per-core L1 and L2 caches, a shared inclusive LLC, per-core
// prefetchers observing the L2 access stream, and a DRAM model behind the
// LLC.
//
// The model is read-only (covert channels only load shared read-only data,
// Section 2.2), so no coherence protocol is needed: correctness reduces to
// presence/absence of lines, and inclusivity is enforced by back-
// invalidating private copies when the LLC evicts a line.
package hier

import (
	"fmt"
	"math/bits"

	"streamline/internal/cache"
	"streamline/internal/dram"
	"streamline/internal/mem"
	"streamline/internal/params"
	"streamline/internal/prefetch"
	"streamline/internal/rng"
	"streamline/internal/tlb"
)

// Level identifies where an access was served.
type Level int

// Hierarchy levels.
const (
	L1 Level = iota
	L2
	LLC
	DRAM
)

// String returns the level name.
func (l Level) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case LLC:
		return "LLC"
	case DRAM:
		return "DRAM"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// AccessResult reports one load's outcome.
type AccessResult struct {
	Latency int
	Level   Level
}

// Options configures hierarchy construction.
type Options struct {
	// LLCPolicy overrides the LLC replacement policy; nil selects the
	// Skylake-flavoured adaptive RRIP.
	LLCPolicy cache.Policy
	// DisablePrefetch turns all hardware prefetchers off.
	DisablePrefetch bool
	// DRAM overrides the DRAM config; nil selects dram.DefaultConfig.
	DRAM *dram.Config
	// Seed drives every pseudo-random decision in the hierarchy.
	Seed uint64

	// The remaining options model the isolation and noise-injection
	// mitigations of the paper's Section 7.

	// CoreDomains assigns each core to a trust domain (nil: all cores in
	// domain 0). Only meaningful together with PartitionWays.
	CoreDomains []int
	// PartitionWays, when positive, gives every trust domain its own
	// LLC partition of that many ways (DAWG-style): lookups only see the
	// requesting domain's lines, so cross-domain cache hits — the signal
	// every shared-memory cache attack decodes — cannot happen.
	PartitionWays int
	// Quota, when non-nil, enables CacheBar-style dynamic way quotas on a
	// single shared LLC (see QuotaConfig in quota.go): per-domain per-set
	// occupancy budgets, periodically rebalanced from demand, with an
	// optional copy-on-access mode for cross-domain shared lines. Trust
	// domains come from CoreDomains exactly as with PartitionWays (nil: one
	// domain per core); the two isolation modes are mutually exclusive.
	Quota *QuotaConfig
	// RandomFillProb is the probability that a demand fill skips the LLC
	// (random-fill caches, Liu & Lee): the data is returned to the core
	// but not deterministically cached, denying the sender reliable
	// installs.
	RandomFillProb float64
	// TLB, when non-nil, models per-core address translation: TLB misses
	// add their penalty to the access latency the requester observes.
	// nil means translation is free — the right model under the huge
	// pages the paper's methodology mandates (a 64 MB array is 32 huge
	// pages). Pass tlb.Skylake4K() to study the 4 KB-page pathology.
	TLB *tlb.Config
}

// Hierarchy is the shared-memory system. It is not safe for concurrent
// use: the simulator interleaves agents deterministically on one goroutine.
type Hierarchy struct {
	mach *params.Machine //detlint:lifecycle-skip immutable machine description; clones share it
	geom mem.Geometry    //detlint:lifecycle-skip address-decomposition geometry fixed at construction
	// opt remembers the construction options (ReplayWarmup refuses a
	// caller-supplied LLCPolicy, whose seed it cannot re-derive).
	opt Options

	// rec, when non-nil, passively records the seed-dependent side effects
	// of the current traffic (LLC policy events and DRAM accesses) for the
	// warmup-snapshot cache; see warmlog.go. Nil during normal runs.
	rec *WarmLog //detlint:lifecycle-skip external recorder attachment; Clone deliberately leaves it behind

	l1 []*cache.Cache
	l2 []*cache.Cache
	// llcs holds one cache per trust domain; unpartitioned systems have a
	// single shared entry.
	llcs    []*cache.Cache
	domains []int //detlint:lifecycle-skip construction-time core -> domain assignment, immutable
	// evictMask[c] is the set of cores whose private copies an LLC
	// eviction caused by core c must back-invalidate: c's trust domain on
	// a partitioned LLC (other domains keep their own partition's copy),
	// every core otherwise (a shared or quota-managed LLC may have served
	// the victim to any core).
	evictMask []uint64 //detlint:lifecycle-skip derived from domains at construction, immutable; clones share it
	dram      *dram.Model
	// pf holds each core's prefetcher; nil under DisablePrefetch.
	pf      []*prefetch.Composite
	tlbs    []*tlb.TLB
	fillRnd *rng.Xoshiro // non-nil when RandomFillProb > 0
	fillP   float64      //detlint:lifecycle-skip derived from opt.RandomFillProb at construction, immutable

	// quota, when non-nil, is the dynamic way-quota rebalancer driving the
	// single quota-managed LLC (see quota.go).
	quota *quotaMgr

	// mon, when non-nil, receives a served-level observation for every
	// demand access (see monitor.go). It is external instrumentation, never
	// consulted for an access's outcome: Clone drops it.
	mon *Monitor //detlint:lifecycle-skip external instrumentation attachment; see comment above

	pfBuf []mem.Addr

	// fast marks the common-case configuration — one trust domain, no
	// TLB model, no random-fill defense — whose Access runs on a
	// straight-line path with the per-access llcFor/tlbs/fillRnd branches
	// hoisted out (every paper experiment's default; see DESIGN.md
	// "Performance").
	fast bool //detlint:lifecycle-skip configuration classification fixed at construction

	// dir holds the fast path's core-valid bits, one word per (LLC set,
	// way): bit c set means core c may hold a private copy of the line in
	// that way. Inclusive Intel LLCs keep exactly this directory state;
	// here it turns back-invalidation from a broadcast probe of every
	// core's L1 and L2 into a probe of just the recorded holders. The mask
	// is a superset of the true holders (silent private evictions leave
	// bits stale), and invalidating a non-holder is a no-op, so the
	// resulting cache state is identical to the broadcast's. nil on the
	// general path.
	dir     []uint8
	dirWays int //detlint:lifecycle-skip directory stride derived from LLC associativity, immutable
	// orphans records private copies that exist while their line is absent
	// from the LLC — the one case the directory cannot index: a prefetch
	// issued mid-access can evict the very line an L2 hit is about to
	// re-fill into the L1. The orphan bits are merged into dir when the
	// line next enters the LLC, so the eventual back-invalidation reaches
	// the stale copy at exactly the moment the broadcast would have.
	orphans []orphan

	// Stats
	Served [4]uint64 // accesses served per level
	// ServedPerCore mirrors Served for each core (the raw material of
	// performance-counter detectors, Section 7).
	ServedPerCore [][4]uint64
	// SkippedFills counts demand fills dropped by the random-fill defense.
	SkippedFills uint64
}

// New builds the hierarchy for machine m.
func New(m *params.Machine, opt Options) (*Hierarchy, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if m.Cores > 64 {
		return nil, fmt.Errorf("hier: %d cores exceed the 64 a back-invalidation mask holds", m.Cores)
	}
	geom, err := mem.NewGeometry(m.LLC.LineBytes, m.PageSize)
	if err != nil {
		return nil, err
	}
	// Trust domains: cores map to LLC partitions when PartitionWays > 0,
	// and to quota accounting domains when Quota is set.
	if opt.PartitionWays > 0 && opt.Quota != nil {
		return nil, fmt.Errorf("hier: PartitionWays and Quota are mutually exclusive isolation modes")
	}
	domains := make([]int, m.Cores)
	nDomains := 1
	if opt.PartitionWays > 0 || opt.Quota != nil {
		if opt.PartitionWays > m.LLC.Ways {
			return nil, fmt.Errorf("hier: partition of %d ways exceeds LLC associativity %d",
				opt.PartitionWays, m.LLC.Ways)
		}
		if opt.CoreDomains != nil && len(opt.CoreDomains) != m.Cores {
			return nil, fmt.Errorf("hier: %d core domains for %d cores", len(opt.CoreDomains), m.Cores)
		}
		for c := range domains {
			if opt.CoreDomains != nil {
				domains[c] = opt.CoreDomains[c]
			} else {
				domains[c] = c // one domain per core by default
			}
			if domains[c] < 0 {
				return nil, fmt.Errorf("hier: negative domain for core %d", c)
			}
			if domains[c]+1 > nDomains {
				nDomains = domains[c] + 1
			}
		}
		if opt.PartitionWays > 0 && nDomains*opt.PartitionWays > m.LLC.Ways {
			return nil, fmt.Errorf("hier: %d domains x %d ways exceed LLC associativity %d",
				nDomains, opt.PartitionWays, m.LLC.Ways)
		}
	}
	llcWays := m.LLC.Ways
	if opt.PartitionWays > 0 {
		llcWays = opt.PartitionWays
	}
	nLLCs := nDomains
	if opt.Quota != nil {
		// Quota domains share one LLC: the domains are occupancy
		// accounting, not separate caches.
		nLLCs = 1
	}
	var llcs []*cache.Cache
	for d := 0; d < nLLCs; d++ {
		llcPol := opt.LLCPolicy
		if llcPol == nil || d > 0 {
			llcPol = cache.NewSkylakeLLC(llcSeed(opt.Seed, d))
		}
		llc, err := cache.New(m.LLC.Sets(), llcWays, llcPol)
		if err != nil {
			return nil, fmt.Errorf("LLC[%d]: %w", d, err)
		}
		llcs = append(llcs, llc)
	}
	// Scale the DRAM timing to the machine: its mean miss latency is the
	// LLC lookup plus the configured DRAM base cost.
	dcfg := dram.ScaledConfig(m.Lat.LLCHit+m.Lat.DRAMBase, m.Lat.Threshold)
	if opt.DRAM != nil {
		dcfg = *opt.DRAM
	}
	h := &Hierarchy{
		mach:          m,
		geom:          geom,
		opt:           opt,
		llcs:          llcs,
		domains:       domains,
		evictMask:     make([]uint64, m.Cores),
		dram:          dram.New(dcfg, opt.Seed^dramSeedXor),
		pfBuf:         make([]mem.Addr, 0, 8),
		fillP:         opt.RandomFillProb,
		ServedPerCore: make([][4]uint64, m.Cores),
	}
	if h.fillP > 0 {
		h.fillRnd = rng.New(opt.Seed ^ fillSeedXor)
	}
	if opt.Quota != nil {
		budgets, err := opt.Quota.initialBudgets(nDomains, m.LLC.Ways)
		if err != nil {
			return nil, err
		}
		if err := llcs[0].EnableQuota(budgets); err != nil {
			return nil, err
		}
		h.quota = newQuotaMgr(*opt.Quota, budgets, m.LLC.Ways)
	}
	h.fast = nDomains == 1 && opt.TLB == nil && h.fillRnd == nil && h.quota == nil && m.Cores <= 8
	if h.fast {
		h.dirWays = llcs[0].Ways()
		h.dir = make([]uint8, llcs[0].Sets()*h.dirWays)
		h.orphans = make([]orphan, 0, 8)
	}
	for c := range h.evictMask {
		for o := range domains {
			if opt.PartitionWays == 0 || domains[o] == domains[c] {
				h.evictMask[c] |= 1 << uint(o)
			}
		}
	}
	for c := 0; c < m.Cores; c++ {
		l1, err := cache.New(m.L1.Sets(), m.L1.Ways, cache.NewTreePLRU())
		if err != nil {
			return nil, fmt.Errorf("L1[%d]: %w", c, err)
		}
		l2, err := cache.New(m.L2.Sets(), m.L2.Ways, cache.NewTreePLRU())
		if err != nil {
			return nil, fmt.Errorf("L2[%d]: %w", c, err)
		}
		h.l1 = append(h.l1, l1)
		h.l2 = append(h.l2, l2)
		if !opt.DisablePrefetch {
			h.pf = append(h.pf, prefetch.NewIntelLike(geom))
		}
		if opt.TLB != nil {
			t, err := tlb.New(*opt.TLB)
			if err != nil {
				return nil, err
			}
			h.tlbs = append(h.tlbs, t)
		}
	}
	return h, nil
}

// Machine returns the platform description.
func (h *Hierarchy) Machine() *params.Machine { return h.mach }

// Geometry returns the line/page geometry.
func (h *Hierarchy) Geometry() mem.Geometry { return h.geom }

// llcFor returns the LLC partition visible to core. Quota domains all see
// the single shared LLC; their domain index is accounting, not a partition.
//
//detlint:hotpath
func (h *Hierarchy) llcFor(core int) *cache.Cache {
	if h.quota != nil {
		return h.llcs[0]
	}
	return h.llcs[h.domains[core]]
}

// checkCore panics on an out-of-range core id; the ids are fixed small
// constants in every caller, so this is a programming error, not input.
//
//detlint:hotpath
func (h *Hierarchy) checkCore(core int) {
	if core < 0 || core >= len(h.l1) {
		panic(fmt.Sprintf("hier: core %d out of range [0,%d)", core, len(h.l1)))
	}
}

// Access performs a demand load from the given core at time now and
// returns its latency and serving level.
//
//detlint:hotpath
func (h *Hierarchy) Access(core int, a mem.Addr, now uint64) AccessResult {
	h.checkCore(core)
	var r AccessResult
	if h.fast {
		r = h.accessFast(core, a, now)
	} else {
		r = h.accessGeneral(core, a, now)
	}
	if h.mon != nil {
		//detlint:allow hotpathalloc -- counter monitoring is opt-in instrumentation, nil unless a detector is attached
		h.mon.observe(core, r.Level, now)
	}
	return r
}

// accessFast is the straight-line hot path for the common configuration
// (single trust domain, no TLB, no random fill): the general path's
// per-access feature branches are gone, the line is decomposed once, and
// all LLC traffic goes to the one shared partition. It must stay
// event-for-event identical to accessGeneral under h.fast's precondition —
// the devirtualization property test and the golden conformance suite hold
// it to that.
//
//detlint:hotpath
func (h *Hierarchy) accessFast(core int, a mem.Addr, now uint64) AccessResult {
	line := h.geom.LineOf(a)
	lat := &h.mach.Lat

	l1 := h.l1[core]
	if l1.Access(line).Hit {
		h.count(core, L1)
		return AccessResult{Latency: lat.L1Hit, Level: L1}
	}
	// L1 miss: the L1 lookup above already installed the line, and the L2
	// lookup below installs it there on a miss, so the only explicit fill
	// left is the trailing L1 touch on each path (normally a hint-served
	// hit; a re-fill only when a prefetch back-invalidated the line
	// mid-access). The touch goes through the inlinable HintHit pair:
	// the install above left the hint pointing at the line, so the slow
	// Access call happens only in the back-invalidation case. Private
	// evictions are silent: lines are clean and the LLC is inclusive.
	l2hit := h.l2[core].Access(line).Hit
	evictedSelf := h.prefetchAfter(core, a, line)
	if l2hit {
		h.count(core, L2)
		if l1.HintHit(line) {
			l1.OnHintHit(line)
		} else {
			l1.Access(line)
		}
		if evictedSelf {
			// The prefetch above evicted this very line from the LLC, so
			// the L1 copy the line above just touched (or re-installed) is
			// invisible to the directory; remember it until the line
			// re-enters the LLC.
			h.addOrphan(line, core)
		}
		return AccessResult{Latency: lat.L2Hit, Level: L2}
	}
	llc := h.llcs[0]
	llcRes := llc.Access(line) // installs on miss
	if h.rec != nil {
		//detlint:allow hotpathalloc -- warmup recording is opt-in instrumentation, nil on measured runs
		h.rec.llcAccess(0, llc.SetOf(line), llcRes)
	}
	idx := llc.SetOf(line)*h.dirWays + llcRes.Way
	if llcRes.Hit {
		h.dir[idx] |= 1 << uint(core)
		if l1.HintHit(line) {
			l1.OnHintHit(line)
		} else {
			l1.Access(line)
		}
		h.count(core, LLC)
		return AccessResult{Latency: lat.LLCHit, Level: LLC}
	}
	if llcRes.DidEvict {
		h.backInvalidateMask(uint64(h.dir[idx]), llcRes.Evicted)
	}
	h.dir[idx] = h.takeOrphans(line) | 1<<uint(core)
	if l1.HintHit(line) {
		l1.OnHintHit(line)
	} else {
		l1.Access(line)
	}
	// Full miss: the line was fetched from DRAM (and filled above).
	h.count(core, DRAM)
	if h.rec != nil {
		//detlint:allow hotpathalloc -- warmup recording is opt-in instrumentation, nil on measured runs
		h.rec.dram(now, a)
	}
	return AccessResult{Latency: h.dram.Latency(now, a), Level: DRAM}
}

// orphan is a line whose private copies outlive its LLC residency; see the
// orphans field.
type orphan struct {
	line mem.Line
	mask uint8
}

// addOrphan records that core holds a private copy of line while the line
// is not in the LLC.
//
//detlint:hotpath
func (h *Hierarchy) addOrphan(line mem.Line, core int) {
	for i := range h.orphans {
		if h.orphans[i].line == line {
			h.orphans[i].mask |= 1 << uint(core)
			return
		}
	}
	//detlint:allow hotpathalloc -- orphan set is capped by concurrently tracked private-only lines; cap-8 buffer from New absorbs the steady state
	h.orphans = append(h.orphans, orphan{line: line, mask: 1 << uint(core)})
}

// takeOrphans removes and returns the orphan holder mask for line (0 if
// none): called when line enters the LLC, at which point the directory
// takes over tracking those copies.
//
//detlint:hotpath
func (h *Hierarchy) takeOrphans(line mem.Line) uint8 {
	if len(h.orphans) == 0 {
		return 0
	}
	for i := range h.orphans {
		if h.orphans[i].line == line {
			m := h.orphans[i].mask
			last := len(h.orphans) - 1
			h.orphans[i] = h.orphans[last]
			h.orphans = h.orphans[:last]
			return m
		}
	}
	return 0
}

// accessGeneral handles every configuration (partitioned LLC, TLB
// modelling, random fill); mitigation experiments pay for the features they
// turn on.
//
//detlint:hotpath
func (h *Hierarchy) accessGeneral(core int, a mem.Addr, now uint64) AccessResult {
	line := h.geom.LineOf(a)
	lat := &h.mach.Lat

	// Address translation rides on top of every access the requester
	// times: a page walk delays even an L1 hit.
	tlbPenalty := 0
	if h.tlbs != nil {
		tlbPenalty = h.tlbs[core].Penalty(a)
	}

	if h.l1[core].Access(line).Hit {
		h.count(core, L1)
		return AccessResult{Latency: lat.L1Hit + tlbPenalty, Level: L1}
	}
	// See accessFast for the fill discipline on an L1 miss.
	l2hit := h.l2[core].Access(line).Hit
	h.prefetchAfter(core, a, line)
	if l2hit {
		h.count(core, L2)
		h.l1[core].Access(line)
		return AccessResult{Latency: lat.L2Hit + tlbPenalty, Level: L2}
	}
	llc := h.llcFor(core)
	if h.quota != nil {
		return h.accessQuota(core, llc, line, a, now, tlbPenalty)
	}
	if h.fillRnd != nil && !llc.Probe(line) && h.fillRnd.Float64() < h.fillP {
		// Random-fill defense: serve the miss without caching it in the
		// LLC. (The private fill still happens: the requester keeps its
		// own copy briefly, which leaks nothing cross-core.)
		h.SkippedFills++
		h.l1[core].Access(line)
		h.count(core, DRAM)
		return AccessResult{Latency: h.dram.Latency(now, a) + tlbPenalty, Level: DRAM}
	}
	llcRes := llc.Access(line) // installs on miss
	if h.rec != nil {
		//detlint:allow hotpathalloc -- warmup recording is opt-in instrumentation, nil on measured runs
		h.rec.llcAccess(uint8(h.domains[core]), llc.SetOf(line), llcRes)
	}
	if llcRes.DidEvict {
		h.backInvalidateMask(h.evictMask[core], llcRes.Evicted)
	}
	h.l1[core].Access(line)
	if llcRes.Hit {
		h.count(core, LLC)
		return AccessResult{Latency: lat.LLCHit + tlbPenalty, Level: LLC}
	}
	// Full miss: the line was fetched from DRAM (and filled above).
	h.count(core, DRAM)
	if h.rec != nil {
		//detlint:allow hotpathalloc -- warmup recording is opt-in instrumentation, nil on measured runs
		h.rec.dram(now, a)
	}
	return AccessResult{Latency: h.dram.Latency(now, a) + tlbPenalty, Level: DRAM}
}

// count records a served access for the global and per-core counters.
//
//detlint:hotpath
func (h *Hierarchy) count(core int, level Level) {
	h.Served[level]++
	h.ServedPerCore[core][level]++
}

// backInvalidateMask removes the private copies of line held by the cores
// in mask, preserving inclusion after an LLC eviction. Cores are visited in
// ascending order. The fast path passes the line's directory bits, which
// may include stale holders; invalidating a core that holds nothing is a
// no-op, so the result is the same as probing every core the eviction
// could reach.
//
//detlint:hotpath
func (h *Hierarchy) backInvalidateMask(mask uint64, line mem.Line) {
	for mask != 0 {
		c := bits.TrailingZeros64(mask)
		mask &= mask - 1
		h.l1[c].Invalidate(line)
		h.l2[c].Invalidate(line)
	}
}

// prefetchAfter lets the core's prefetcher observe address a and performs
// the proposed fills into the core's LLC partition and its L2. Under quotas
// the fills count against the core's domain. On the fast path the
// directory is kept up to date on every LLC touch, and the result reports
// whether a prefetch fill evicted line, the demand line the caller is
// mid-way through serving (the orphan case; see accessFast).
//
//detlint:hotpath
func (h *Hierarchy) prefetchAfter(core int, a mem.Addr, line mem.Line) (evictedSelf bool) {
	if h.pf == nil {
		return false
	}
	h.pfBuf = h.pf[core].Observe(a, h.pfBuf[:0])
	if len(h.pfBuf) == 0 {
		return false
	}
	llc := h.llcFor(core)
	dom := uint8(h.domains[core])
	for _, pa := range h.pfBuf {
		pl := h.geom.LineOf(pa)
		var r cache.Result
		if h.quota != nil {
			r = llc.InstallPrefetchOwned(pl, dom)
		} else {
			r = llc.InstallPrefetch(pl)
		}
		if h.rec != nil {
			//detlint:allow hotpathalloc -- warmup recording is opt-in instrumentation, nil on measured runs
			h.rec.llcPrefetch(dom, llc.SetOf(pl), r)
		}
		if h.fast {
			idx := llc.SetOf(pl)*h.dirWays + r.Way
			if r.Hit {
				// Already resident: the L2 install below still gives this
				// core a private copy to track.
				h.dir[idx] |= 1 << uint(core)
			} else {
				if r.DidEvict {
					if r.Evicted == line {
						evictedSelf = true
					}
					h.backInvalidateMask(uint64(h.dir[idx]), r.Evicted)
				}
				h.dir[idx] = h.takeOrphans(pl) | 1<<uint(core)
			}
		} else if r.DidEvict {
			h.backInvalidateMask(h.evictMask[core], r.Evicted)
		}
		h.l2[core].InstallPrefetch(pl)
	}
	return evictedSelf
}

// Flush models clflush: the line is removed from every cache in the system.
// It returns the flush latency and whether the line was cached anywhere —
// the timing signal Flush+Flush decodes.
//
//detlint:hotpath
func (h *Hierarchy) Flush(core int, a mem.Addr) (latency int, wasCached bool) {
	h.checkCore(core)
	if h.rec != nil {
		// Flushes change LLC policy state in victim-dependent ways the warm
		// log cannot re-feed; no warmup flushes, so just abort.
		//detlint:allow hotpathalloc -- warmup recording is opt-in instrumentation, nil on measured runs
		h.rec.abort()
	}
	line := h.geom.LineOf(a)
	for c := range h.l1 {
		if h.l1[c].Invalidate(line) {
			wasCached = true
		}
		if h.l2[c].Invalidate(line) {
			wasCached = true
		}
	}
	for _, llc := range h.llcs {
		if llc.Flush(line) {
			wasCached = true
		}
	}
	if wasCached {
		return h.mach.Lat.FlushLatency, true
	}
	return h.mach.Lat.FlushMiss, false
}

// ProbeLLC reports whether a's line is in any LLC partition, without side
// effects.
func (h *Hierarchy) ProbeLLC(a mem.Addr) bool {
	line := h.geom.LineOf(a)
	for _, llc := range h.llcs {
		if llc.Probe(line) {
			return true
		}
	}
	return false
}

// InvalidatePrivate drops a's line from core's private caches only, so the
// core's next access to it is served by the LLC (the sync channel's
// signaller drops its own copy of the sync line this way).
func (h *Hierarchy) InvalidatePrivate(core int, a mem.Addr) {
	h.checkCore(core)
	line := h.geom.LineOf(a)
	h.l1[core].Invalidate(line)
	h.l2[core].Invalidate(line)
}
