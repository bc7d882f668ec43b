// The Engine and its reuse layers (see DESIGN.md "State lifecycle").
// Building a Hierarchy allocates megabytes of tag/metadata arrays, and the
// default 1 MB warmup walks 16K lines through it before a single payload
// bit moves. An Engine memoizes the post-warmup state per (fingerprint,
// warmup-spec): the first run with a given spec builds its hierarchy with
// hier.New, records its warmup into a hier.WarmLog and parks a clone; later
// runs clone the snapshot and replay the log under their own seed, which is
// bit-for-bit identical to warming up from scratch (the golden conformance
// suite and TestReuseEquivalence pin this). Configurations the replay
// cannot reproduce — a named LLC policy, random-fill defenses, quotas —
// always build a fresh hierarchy. The same Engine holds the checkpoint tree
// (checkpoint.go), the result store handle (store.go) — its one result
// cache — and the counters that report all of it; nothing is process-wide,
// so two engines in one process share no state.

package core

import (
	"sync"
	"sync/atomic"

	"streamline/internal/hier"
	"streamline/internal/params"
	"streamline/internal/resultstore"
)

// EngineOptions configures an Engine. The zero value enables every reuse
// layer and no result store. Results are bit-identical under any setting:
// the switches exist for A/B verification (the golden suite builds one
// engine per axis) and as escape hatches.
type EngineOptions struct {
	// Store is the result store Run reads through and writes back to, on
	// disk or memory-only (resultstore.Open("")); nil simulates every run.
	Store *resultstore.Store
	// NoReuse disables the warm snapshot: every run that does not fork
	// from a checkpoint builds its hierarchy with hier.New and simulates
	// its own warmup walk.
	NoReuse bool
	// NoCheckpoints disables the mid-run checkpoint tree: Config.Chain is
	// ignored.
	NoCheckpoints bool
}

// Engine runs channels through the reuse layers it owns: the warm
// snapshots, the checkpoint tree, and the result store. It
// is safe for concurrent use; long-lived processes build one and pass it to
// every caller.
type Engine struct {
	opt EngineOptions

	warm struct {
		mu       sync.Mutex
		snaps    map[uint64]*warmSnapshot
		building map[uint64]bool // a run is currently recording this key
		noSnap   map[uint64]bool // recording failed or memo full: stop trying
	}

	chain struct {
		mu    sync.Mutex
		nodes map[chainNodeKey]*chainCheckpoint
	}

	// ctr backs Counters; it never influences simulation.
	ctr struct {
		sims, storeHits, storeMisses, nodes, forks atomic.Uint64
	}
}

// NewEngine returns an Engine with empty reuse layers.
func NewEngine(o EngineOptions) *Engine {
	e := &Engine{opt: o}
	e.warm.snaps = make(map[uint64]*warmSnapshot)
	e.warm.building = make(map[uint64]bool)
	e.warm.noSnap = make(map[uint64]bool)
	e.DropCheckpoints()
	return e
}

// Store returns the engine's result store, or nil. Every run the engine
// serves (Run, RunRandom, RunAttack, RunXYProbe) reads through and writes
// back to it; callers use the handle to report hit/miss counts.
func (e *Engine) Store() *resultstore.Store { return e.opt.Store }

// Counters is a monotonic snapshot of an Engine's activity.
type Counters struct {
	// Sims counts runs that acquired a simulator (cold or forked; an
	// attack or XY probe builds its own);
	// StoreHits runs served entirely from the result store; StoreMisses
	// store lookups that missed and fell through to simulation.
	Sims, StoreHits, StoreMisses uint64
	// Nodes counts checkpoints published, Forks runs resumed from one.
	Nodes, Forks uint64
}

// Counters returns the engine's activity so far.
func (e *Engine) Counters() Counters {
	return Counters{
		Sims:        e.ctr.sims.Load(),
		StoreHits:   e.ctr.storeHits.Load(),
		StoreMisses: e.ctr.storeMisses.Load(),
		Nodes:       e.ctr.nodes.Load(),
		Forks:       e.ctr.forks.Load(),
	}
}

// DropCheckpoints empties the checkpoint tree, releasing the hierarchy
// clones and decoded prefixes it retains. Benchmarks call it to make every
// iteration equally cold; it leaves the result store alone.
func (e *Engine) DropCheckpoints() {
	e.chain.mu.Lock()
	defer e.chain.mu.Unlock()
	e.chain.nodes = make(map[chainNodeKey]*chainCheckpoint)
}

// maxSnapshots bounds the warm-state memo: each entry retains a full
// hierarchy clone (megabytes), and real workloads cycle through a handful of
// machine configurations, not hundreds.
const maxSnapshots = 16

// maxChainNodes bounds the checkpoint tree: each node retains a hierarchy
// clone plus agent cursors (a few MB; the receiver's decoded prefix
// dominates deep nodes). A ladder contributes one node per length short of
// its longest, per rep, so the default experiments stay well under this.
const maxChainNodes = 24

type chainNodeKey struct {
	chain    uint64
	boundary int64
}

// chainNodeExists reports whether a checkpoint is already published at
// (chain, boundary).
func (e *Engine) chainNodeExists(chain uint64, boundary int64) bool {
	e.chain.mu.Lock()
	defer e.chain.mu.Unlock()
	_, ok := e.chain.nodes[chainNodeKey{chain, boundary}]
	return ok
}

// claimChainNode reports whether the tree has room for another node. The
// capture happens outside the lock (it clones megabytes), so concurrent
// publishers may briefly overshoot by a node each — storeChainNode
// re-checks before inserting.
func (e *Engine) claimChainNode() bool {
	e.chain.mu.Lock()
	defer e.chain.mu.Unlock()
	return len(e.chain.nodes) < maxChainNodes
}

// lookupChainNode returns the deepest published node of the chain at or
// below maxBoundary, or nil. Linear scan: the tree holds at most
// maxChainNodes entries.
func (e *Engine) lookupChainNode(chain uint64, maxBoundary int64) *chainCheckpoint {
	e.chain.mu.Lock()
	defer e.chain.mu.Unlock()
	var best *chainCheckpoint
	for k, n := range e.chain.nodes {
		if k.chain != chain || k.boundary > maxBoundary {
			continue
		}
		if best == nil || k.boundary > best.boundary {
			best = n
		}
	}
	return best
}

// storeChainNode publishes a node; duplicates and overflow are dropped
// (publication is purely an optimization for later runs).
func (e *Engine) storeChainNode(chain uint64, node *chainCheckpoint) {
	e.chain.mu.Lock()
	defer e.chain.mu.Unlock()
	k := chainNodeKey{chain, node.boundary}
	if _, ok := e.chain.nodes[k]; ok || len(e.chain.nodes) >= maxChainNodes {
		return
	}
	e.chain.nodes[k] = node
	e.ctr.nodes.Add(1)
}

// warmSnapshot is the memoized post-warmup state for one (fingerprint,
// warmup-spec): a hierarchy clone frozen right after the warmup walk, plus
// the log that rebuilds its seed-dependent components for any other seed.
type warmSnapshot struct {
	h   *hier.Hierarchy
	log *hier.WarmLog
}

// simLease is one Run's simulator and how it was obtained.
type simLease struct {
	h       *hier.Hierarchy
	warmed  bool // h already carries the post-warmup state
	record  bool // this run must record its warmup to seed the memo
	snapKey uint64
}

// runFingerprint hashes everything that determines a hierarchy's shape and
// behaviour except the seed, so two runs with equal fingerprints share a
// warm snapshot (ReplayWarmup supplies the seed). These are the Config
// fields buildHierOptions reads, less LLCPolicy and Quota (configurations
// with either never take the snapshot): the TLB model is a pure function
// of HugePages, and the trust domains of PartitionWays and ReceiverCore.
// TestStoreKeySensitivity asserts exactly these fields move it.
func runFingerprint(cfg *Config) uint64 {
	e := newEnc(160)
	e.u64(cfg.Machine.Fingerprint())
	e.bool(cfg.HugePages)
	e.bool(cfg.DisablePrefetch)
	e.f64(cfg.RandomFillProb)
	e.i(cfg.PartitionWays)
	if cfg.PartitionWays > 0 {
		e.i(cfg.ReceiverCore)
	}
	e.dram(cfg.DRAM)
	return fnvBytes(e.b)
}

// effectiveWarmup returns the byte count the warmup walk will actually
// touch (Run clamps WarmupBytes to the array).
func effectiveWarmup(cfg *Config) int {
	w := cfg.WarmupBytes
	if w > cfg.ArraySize {
		w = cfg.ArraySize
	}
	if w < 0 {
		w = 0
	}
	return w
}

// snapKey extends a run fingerprint with everything that determines the
// warmup traffic: the walk's extent and the core that issues it (the shared
// array always sits at the allocator's fixed base, so the addresses are a
// function of these alone).
func snapKey(runFp uint64, warmBytes, senderCore int) uint64 {
	h := params.FNVUint(params.FNVOffset, runFp)
	h = params.FNVUint(h, uint64(warmBytes))
	return params.FNVUint(h, uint64(senderCore))
}

// acquireSim returns an un-forked run's hierarchy: a clone of the warm
// snapshot with the warmup replayed for cfg.Seed when one exists, else a
// fresh hier.New, which records its warmup for later runs when it wins the
// claim. Configurations the replay cannot reproduce — a named LLC policy,
// random fill, quotas — and reuse-off engines always build fresh.
func (e *Engine) acquireSim(cfg *Config) (*simLease, error) {
	warm := 0
	if !e.opt.NoReuse && cfg.LLCPolicy == "" && cfg.RandomFillProb == 0 && cfg.Quota == nil {
		warm = effectiveWarmup(cfg)
	}
	var sk uint64
	if warm > 0 {
		sk = snapKey(runFingerprint(cfg), warm, cfg.SenderCore)
		if lease := e.leaseFromSnapshot(cfg.Seed, sk); lease != nil {
			return lease, nil
		}
	}
	h, err := hier.New(cfg.Machine, buildHierOptions(cfg))
	if err != nil {
		return nil, err
	}
	return &simLease{h: h, snapKey: sk, record: warm > 0 && e.claimSnapshotBuild(sk)}, nil
}

// leaseFromSnapshot clones the memoized snapshot under sk and replays its
// warmup for seed, or returns nil when none is usable.
func (e *Engine) leaseFromSnapshot(seed, sk uint64) *simLease {
	e.warm.mu.Lock()
	snap := e.warm.snaps[sk]
	e.warm.mu.Unlock()
	if snap == nil {
		return nil
	}
	h := snap.h.Clone()
	if h.ReplayWarmup(seed, snap.log) != nil {
		return nil
	}
	return &simLease{h: h, warmed: true}
}

// claimSnapshotBuild reports whether the caller should record its warmup for
// the memo: exactly one concurrent run per key records (the others warm up
// normally and benefit on their next repetition), and keys that failed or
// overflowed the memo are never claimed again.
func (e *Engine) claimSnapshotBuild(sk uint64) bool {
	e.warm.mu.Lock()
	defer e.warm.mu.Unlock()
	if e.warm.noSnap[sk] || e.warm.building[sk] || e.warm.snaps[sk] != nil {
		return false
	}
	if len(e.warm.snaps) >= maxSnapshots {
		e.warm.noSnap[sk] = true
		return false
	}
	e.warm.building[sk] = true
	return true
}

// storeSnapshot parks the builder's post-warmup state (called right after
// the warmup walk, before any agent runs). An aborted log — an LLC eviction
// or flush during warmup, which replay cannot reproduce — permanently
// disables the memo for this key.
func (e *Engine) storeSnapshot(sk uint64, h *hier.Hierarchy, log *hier.WarmLog) {
	e.warm.mu.Lock()
	defer e.warm.mu.Unlock()
	delete(e.warm.building, sk)
	if log == nil || log.Aborted() || len(e.warm.snaps) >= maxSnapshots {
		e.warm.noSnap[sk] = true
		return
	}
	e.warm.snaps[sk] = &warmSnapshot{h: h.Clone(), log: log}
}

// releaseSim ends a run's lease: a builder that bailed out between warmup
// and completion (an error path) drops its snapshot claim so a later run
// can try.
func (e *Engine) releaseSim(lease *simLease) {
	if lease.record {
		e.warm.mu.Lock()
		delete(e.warm.building, lease.snapKey)
		e.warm.mu.Unlock()
	}
}
