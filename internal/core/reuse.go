// Simulator reuse (see DESIGN.md "State lifecycle"). Building a Hierarchy
// allocates megabytes of tag/metadata arrays, and the default 1 MB warmup
// walks 16K lines through it before a single payload bit moves; repeated
// runs — sweeps, the bench harness, the experiment tables — used to pay both
// on every repetition. Run now leases its simulator from a process-wide pool
// keyed by configuration fingerprint (in-place Reset instead of rebuild) and
// memoizes the post-warmup state per (fingerprint, warmup-spec): the first
// run with a given spec records its warmup into a hier.WarmLog and parks a
// clone; later runs copy the clone and replay the log under their own seed,
// which is bit-for-bit identical to warming up from scratch (the golden
// conformance suite and TestReuseEquivalence pin this). Configurations the
// lifecycle cannot reproduce — a caller-supplied LLC policy, random-fill
// defenses — bypass reuse entirely and behave exactly as before.

package core

import (
	"math"
	"sync"
	"sync/atomic"

	"streamline/internal/hier"
	"streamline/internal/params"
	"streamline/internal/resultstore"
	"streamline/internal/runner"
)

// reuseDisabled is the global reuse switch, inverted so the zero value means
// enabled. The toggle exists for A/B verification (tests, detlint runs) and
// as an escape hatch; it is not part of Config because reuse is a pure
// optimization with no observable effect on results.
var reuseDisabled atomic.Bool

// SetReuse enables or disables simulator pooling and warmup-snapshot reuse
// process-wide and returns the previous setting. Reuse is enabled by
// default; results are identical either way.
func SetReuse(on bool) bool {
	return !reuseDisabled.Swap(!on)
}

// checkpointsDisabled is the mid-run checkpoint-tree switch, inverted so
// the zero value means enabled (mirrors reuseDisabled). The golden suite's
// checkpoint-off axis verifies results are identical either way.
var checkpointsDisabled atomic.Bool

// SetCheckpoints enables or disables the mid-run checkpoint tree and result
// memo (Config.Chain) process-wide and returns the previous setting.
// Checkpoints are enabled by default; results are identical either way.
func SetCheckpoints(on bool) bool {
	return !checkpointsDisabled.Swap(!on)
}

// DropCheckpoints empties the checkpoint tree and the chain result memo,
// releasing the hierarchy clones and decoded payloads they retain (up to
// ~200 MB after a large chained sweep). Long-lived processes call it between
// unrelated sweeps; benchmarks call it to make every iteration equally cold.
func DropCheckpoints() {
	chainReuse.mu.Lock()
	defer chainReuse.mu.Unlock()
	chainReuse.nodes = make(map[chainNodeKey]*chainCheckpoint)
	chainReuse.memo = make(map[resultstore.Key]*Result)
	chainReuse.memoBytes = 0
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

// maxMemoBytes bounds the chain result memo (estimated retained bytes; the
// decoded payload dominates).
const maxMemoBytes = 192 << 20

type chainNodeKey struct {
	chain    uint64
	boundary int64
}

// chainCounters tracks process-wide checkpoint-tree activity for display
// (cmd/sweep) and tests; it never influences simulation.
var chainCounters struct {
	nodes, forks, memoHits atomic.Uint64
}

// ChainCounters is a monotonic snapshot of checkpoint-tree activity.
type ChainCounters struct {
	// Nodes is the number of checkpoints published, Forks the number of
	// runs resumed from one, MemoHits the number of runs served entirely
	// from the result memo.
	Nodes, Forks, MemoHits uint64
}

// ReadChainCounters returns the current process-wide chain activity.
func ReadChainCounters() ChainCounters {
	return ChainCounters{
		Nodes:    chainCounters.nodes.Load(),
		Forks:    chainCounters.forks.Load(),
		MemoHits: chainCounters.memoHits.Load(),
	}
}

var chainReuse = struct {
	mu        sync.Mutex
	nodes     map[chainNodeKey]*chainCheckpoint
	memo      map[resultstore.Key]*Result
	memoBytes int
}{
	nodes: make(map[chainNodeKey]*chainCheckpoint),
	memo:  make(map[resultstore.Key]*Result),
}

// chainNodeExists reports whether a checkpoint is already published at
// (chain, boundary).
func chainNodeExists(chain uint64, boundary int64) bool {
	chainReuse.mu.Lock()
	defer chainReuse.mu.Unlock()
	_, ok := chainReuse.nodes[chainNodeKey{chain, boundary}]
	return ok
}

// claimChainNode reports whether the tree has room for another node. The
// capture happens outside the lock (it clones megabytes), so concurrent
// publishers may briefly overshoot by a node each — storeChainNode
// re-checks before inserting.
func claimChainNode() bool {
	chainReuse.mu.Lock()
	defer chainReuse.mu.Unlock()
	return len(chainReuse.nodes) < maxChainNodes
}

// lookupChainNode returns the deepest published node of the chain at or
// below maxBoundary, or nil. Linear scan: the tree holds at most
// maxChainNodes entries.
func lookupChainNode(chain uint64, maxBoundary int64) *chainCheckpoint {
	chainReuse.mu.Lock()
	defer chainReuse.mu.Unlock()
	var best *chainCheckpoint
	for k, n := range chainReuse.nodes {
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
func storeChainNode(chain uint64, node *chainCheckpoint) {
	chainReuse.mu.Lock()
	defer chainReuse.mu.Unlock()
	k := chainNodeKey{chain, node.boundary}
	if _, ok := chainReuse.nodes[k]; ok || len(chainReuse.nodes) >= maxChainNodes {
		return
	}
	chainReuse.nodes[k] = node
	chainCounters.nodes.Add(1)
}

// memoLookup serves a deep copy of a previously computed chain Result, or
// nil. The key is the run's store content address (storeKey), which covers
// every simulation-steering Config field and the full payload, so a hit is
// only possible for a bit-identical run.
func memoLookup(key resultstore.Key) *Result {
	chainReuse.mu.Lock()
	r := chainReuse.memo[key]
	chainReuse.mu.Unlock()
	if r == nil {
		return nil
	}
	chainCounters.memoHits.Add(1)
	return cloneResult(r)
}

// memoStore parks a deep copy of a completed chain Result under key,
// subject to the byte budget.
func memoStore(key resultstore.Key, r *Result) {
	chainReuse.mu.Lock()
	defer chainReuse.mu.Unlock()
	if _, ok := chainReuse.memo[key]; ok {
		return
	}
	n := resultBytes(r)
	if chainReuse.memoBytes+n > maxMemoBytes {
		return
	}
	chainReuse.memoBytes += n
	chainReuse.memo[key] = cloneResult(r)
}

// warmSnapshot is the memoized post-warmup state for one (fingerprint,
// warmup-spec): a hierarchy clone frozen right after the warmup walk, plus
// the log that rebuilds its seed-dependent components for any other seed.
type warmSnapshot struct {
	h   *hier.Hierarchy
	log *hier.WarmLog
}

var simReuse = struct {
	mu       sync.Mutex
	snaps    map[uint64]*warmSnapshot
	building map[uint64]bool // a run is currently recording this key
	noSnap   map[uint64]bool // recording failed or memo full: stop trying
}{
	snaps:    make(map[uint64]*warmSnapshot),
	building: make(map[uint64]bool),
	noSnap:   make(map[uint64]bool),
}

// simPool holds idle hierarchies by run fingerprint, at most a worker's
// worth per configuration.
var simPool = runner.NewPool[*hier.Hierarchy](8)

// simLease is one Run's checkout from the reuse machinery.
type simLease struct {
	h        *hier.Hierarchy
	key      uint64 // pool key (run fingerprint)
	poolable bool   // return h to the pool when the run finishes
	warmed   bool   // h already carries the post-warmup state
	record   bool   // this run must record its warmup to seed the memo
	snapKey  uint64
}

func fnvBool(h uint64, b bool) uint64 {
	if b {
		return params.FNVUint(h, 1)
	}
	return params.FNVUint(h, 0)
}

// runFingerprint hashes everything that determines a hierarchy's shape and
// behaviour except the seed: two runs with equal fingerprints can share
// pooled simulator state (Reset supplies the seed). The statetest audits on
// Machine plus the explicit option folds below keep it exhaustive.
func runFingerprint(cfg *Config, hopt *hier.Options) uint64 {
	h := params.FNVUint(params.FNVOffset, cfg.Machine.Fingerprint())
	h = params.FNVUint(h, uint64(hopt.PartitionWays))
	h = params.FNVUint(h, uint64(len(hopt.CoreDomains)))
	for _, d := range hopt.CoreDomains {
		h = params.FNVUint(h, uint64(d))
	}
	h = fnvBool(h, hopt.DisablePrefetch)
	h = params.FNVUint(h, math.Float64bits(hopt.RandomFillProb))
	h = fnvBool(h, hopt.TLB != nil)
	if t := hopt.TLB; t != nil {
		h = params.FNVUint(h, uint64(t.PageBytes))
		h = params.FNVUint(h, uint64(t.L1Entries))
		h = params.FNVUint(h, uint64(t.L1Ways))
		h = params.FNVUint(h, uint64(t.L2Entries))
		h = params.FNVUint(h, uint64(t.L2Ways))
		h = params.FNVUint(h, uint64(t.L2HitPenalty))
		h = params.FNVUint(h, uint64(t.WalkPenalty))
	}
	h = fnvBool(h, hopt.DRAM != nil)
	if d := hopt.DRAM; d != nil {
		h = params.FNVUint(h, uint64(d.Banks))
		h = params.FNVUint(h, uint64(d.RowBytes))
		h = params.FNVUint(h, uint64(d.RowHit))
		h = params.FNVUint(h, uint64(d.RowMiss))
		h = params.FNVUint(h, uint64(d.RowConflict))
		h = params.FNVUint(h, uint64(d.JitterSD))
		h = params.FNVUint(h, uint64(d.BankBusy))
		h = params.FNVUint(h, uint64(d.ChannelBusy))
		h = params.FNVUint(h, uint64(d.RowCloseCycles))
		h = params.FNVUint(h, math.Float64bits(d.FastTailProb))
		h = params.FNVUint(h, uint64(d.FastTailLat))
		h = params.FNVUint(h, uint64(d.MinLatency))
	}
	return h
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

// acquireSim leases a hierarchy for one Run: from the warm-state memo when a
// snapshot exists (warmup already applied), from the idle pool when one of
// the right shape is free (reset in place), or freshly built. Configurations
// outside the lifecycle get a plain hier.New and are never pooled.
func acquireSim(cfg *Config, hopt hier.Options) (*simLease, error) {
	poolable := !reuseDisabled.Load() && cfg.LLCPolicy == nil && cfg.RandomFillProb == 0 &&
		cfg.Quota == nil
	if !poolable {
		h, err := hier.New(cfg.Machine, hopt)
		if err != nil {
			return nil, err
		}
		return &simLease{h: h}, nil
	}
	key := runFingerprint(cfg, &hopt)
	warm := effectiveWarmup(cfg)
	if warm > 0 {
		sk := snapKey(key, warm, cfg.SenderCore)
		if lease := leaseFromSnapshot(cfg, key, sk); lease != nil {
			return lease, nil
		}
		lease, err := leaseCold(cfg, hopt, key)
		if err != nil {
			return nil, err
		}
		lease.snapKey = sk
		lease.record = claimSnapshotBuild(sk)
		return lease, nil
	}
	return leaseCold(cfg, hopt, key)
}

// leaseFromSnapshot materializes a warmed hierarchy for cfg.Seed from the
// memoized snapshot under sk, or returns nil when none is usable.
func leaseFromSnapshot(cfg *Config, key, sk uint64) *simLease {
	simReuse.mu.Lock()
	snap := simReuse.snaps[sk]
	simReuse.mu.Unlock()
	if snap == nil {
		return nil
	}
	var h *hier.Hierarchy
	if pooled, ok := simPool.Get(key); ok {
		pooled.CopyFrom(snap.h)
		h = pooled
	} else {
		c, err := snap.h.Clone()
		if err != nil {
			return nil
		}
		h = c
	}
	if err := h.ReplayWarmup(cfg.Seed, snap.log); err != nil {
		return nil
	}
	return &simLease{h: h, key: key, poolable: true, warmed: true}
}

// leaseCold returns an un-warmed hierarchy for cfg.Seed: a pooled one reset
// in place when available, else a fresh build.
func leaseCold(cfg *Config, hopt hier.Options, key uint64) (*simLease, error) {
	if pooled, ok := simPool.Get(key); ok {
		if err := pooled.Reset(cfg.Seed); err == nil {
			return &simLease{h: pooled, key: key, poolable: true}, nil
		}
	}
	h, err := hier.New(cfg.Machine, hopt)
	if err != nil {
		return nil, err
	}
	return &simLease{h: h, key: key, poolable: true}, nil
}

// leaseForFork materializes a hierarchy carrying a mid-run checkpoint's
// state: into a pooled same-shape hierarchy when one is idle (and pooling
// is on), else as a fresh clone. Returns nil on failure, in which case the
// caller falls back to a cold start.
func leaseForFork(cfg *Config, hopt *hier.Options, node *chainCheckpoint) *simLease {
	key := runFingerprint(cfg, hopt)
	if !reuseDisabled.Load() {
		if pooled, ok := simPool.Get(key); ok {
			// Same run fingerprint (the chain fingerprint embeds it) means
			// the same shape, so the in-place restore cannot panic.
			node.ckpt.RestoreInto(pooled)
			return &simLease{h: pooled, key: key, poolable: true, warmed: true}
		}
	}
	h, err := node.ckpt.Materialize()
	if err != nil {
		return nil
	}
	return &simLease{h: h, key: key, poolable: !reuseDisabled.Load(), warmed: true}
}

// claimSnapshotBuild reports whether the caller should record its warmup for
// the memo: exactly one concurrent run per key records (the others warm up
// normally and benefit on their next repetition), and keys that failed or
// overflowed the memo are never claimed again.
func claimSnapshotBuild(sk uint64) bool {
	simReuse.mu.Lock()
	defer simReuse.mu.Unlock()
	if simReuse.noSnap[sk] || simReuse.building[sk] || simReuse.snaps[sk] != nil {
		return false
	}
	if len(simReuse.snaps) >= maxSnapshots {
		simReuse.noSnap[sk] = true
		return false
	}
	simReuse.building[sk] = true
	return true
}

// storeSnapshot parks the builder's post-warmup state (called right after
// the warmup walk, before any agent runs). An aborted log — an LLC eviction
// or flush during warmup, which replay cannot reproduce — permanently
// disables the memo for this key.
func storeSnapshot(sk uint64, h *hier.Hierarchy, log *hier.WarmLog) {
	simReuse.mu.Lock()
	defer simReuse.mu.Unlock()
	delete(simReuse.building, sk)
	if log == nil || log.Aborted() || len(simReuse.snaps) >= maxSnapshots {
		simReuse.noSnap[sk] = true
		return
	}
	c, err := h.Clone()
	if err != nil {
		simReuse.noSnap[sk] = true
		return
	}
	simReuse.snaps[sk] = &warmSnapshot{h: c, log: log}
}

// releaseSim returns the lease's hierarchy to the idle pool. The state goes
// back dirty: every checkout path resets or overwrites it before use.
func releaseSim(lease *simLease) {
	if lease.record {
		// The builder bailed out before storing (an error path between
		// warmup and completion): release the claim so a later run can try.
		simReuse.mu.Lock()
		delete(simReuse.building, lease.snapKey)
		simReuse.mu.Unlock()
	}
	if lease.poolable {
		simPool.Put(lease.key, lease.h)
	}
}
