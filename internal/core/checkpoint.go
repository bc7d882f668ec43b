// Mid-run checkpoint tree (see DESIGN.md "Snapshot tree & work stealing").
//
// Runs that differ only in payload length execute bit-for-bit identically
// until the step that completes the shorter payload's last transmitted bit:
// that step is the first one whose outcome reads len(tx) (the sender's
// done/sync-wait checks, the receiver's done check). So a family of runs
// declared via Config.Chain shares its simulation prefix: the first member
// to cross a shorter member's boundary pauses just before either agent
// processes that bit, freezes the complete simulation state — hierarchy
// (hier.Checkpoint), scheduler clocks (sched.State), and every agent's
// cursor — and publishes it in its Engine's tree keyed by (chain
// fingerprint, boundary). Later members fork from the deepest boundary at
// or below their own length and simulate only the tail.
//
// Unlike the warmup memo (reuse.go), nothing is replayed: a fork is a deep
// same-seed restore, so evictions, flushes, and noise during the prefix are
// all legal. The legality rules are config-gated instead: chainEligible
// rejects the configurations the warm snapshot also turns away (a named
// LLC policy, random fill, quotas) and those whose state lives outside the
// captured agent set (counter monitors). A fork runs on a Clone of the
// checkpointed hierarchy (hier.Checkpoint.Materialize). Misses and
// hash-mismatched forks degrade to cold runs — the invariant "fork ≡ fresh
// run, bit for bit" is pinned by TestCheckpointForkEqualsFreshRun and the
// golden suite's checkpoint-off axis.
package core

import (
	"fmt"

	"streamline/internal/ecc"
	"streamline/internal/hier"
	"streamline/internal/mem"
	"streamline/internal/noise"
	"streamline/internal/params"
	"streamline/internal/rng"
	"streamline/internal/sched"
	"streamline/internal/syncch"
)

// pauseCtl coordinates checkpoint pauses between the two channel agents and
// the scheduler. Whichever agent first enters Step with its bit index equal
// to at calls Stop and yields; the scheduler discards that step, Run/Resume
// returns sched.ErrPaused, and the run loop publishes a checkpoint before
// advancing at to the next boundary and resuming. Because the check is an
// exact equality against a bit index the agents pass through one at a time,
// a boundary fires exactly once.
type pauseCtl struct {
	s  *sched.Scheduler
	at int64 // next boundary (bit index); -1 disables
	// pending holds the boundaries after at, ascending.
	pending []int64
}

// advance moves to the next boundary after a checkpoint is taken.
func (p *pauseCtl) advance() {
	if len(p.pending) == 0 {
		p.at = -1
		return
	}
	p.at = p.pending[0]
	p.pending = p.pending[1:]
}

// streamState is an addrStream's cursor: the chunk window and its position.
// Copying the buffer (2 KB) rather than re-deriving it keeps the restore a
// pure memcpy of the capture, with no reliance on refill-boundary
// equivalence arguments.
type streamState struct {
	lo  int64
	buf []mem.Addr
}

func captureStream(s *addrStream) streamState {
	return streamState{lo: s.lo, buf: append([]mem.Addr(nil), s.buf...)}
}

func (st *streamState) restoreInto(s *addrStream) {
	s.lo = st.lo
	copy(s.buf, st.buf)
}

// senderState captures every mutable sender field. The config-derived
// fields (cfg, h, tx, sync, recvI, gapEvery, camo identity) are rebuilt by
// the forking run from its own — identical — configuration; the statetest
// audit in checkpoint_test.go pins that this split covers the whole struct.
type senderState struct {
	i            int64
	waiting      bool
	waitStart    uint64
	syncWaits    uint64
	syncTimeouts uint64
	bits         int64
	maxGap       int64
	gaps         []GapSample
	x            *rng.Xoshiro
	txS, trailS  streamState
	camoPos      int
}

func captureSender(s *sender) senderState {
	st := senderState{
		i: s.i, waiting: s.waiting, waitStart: s.waitStart,
		syncWaits: s.SyncWaits, syncTimeouts: s.SyncTimeouts,
		bits: s.Bits, maxGap: s.maxGap,
		gaps: append([]GapSample(nil), s.gaps...),
		x:    s.x.Clone(),
		txS:  captureStream(&s.txS), trailS: captureStream(&s.trailS),
	}
	if s.camo != nil {
		st.camoPos = s.camo.pos
	}
	return st
}

func (st *senderState) restoreInto(s *sender) {
	s.i, s.waiting, s.waitStart = st.i, st.waiting, st.waitStart
	s.SyncWaits, s.SyncTimeouts = st.syncWaits, st.syncTimeouts
	s.Bits, s.maxGap = st.bits, st.maxGap
	s.gaps = append(s.gaps[:0], st.gaps...)
	s.x.CopyStateFrom(st.x)
	st.txS.restoreInto(&s.txS)
	st.trailS.restoreInto(&s.trailS)
	if s.camo != nil {
		s.camo.pos = st.camoPos
	}
}

// receiverState captures every mutable receiver field; rx and the level
// trace travel as prefixes (bits beyond i are still zero on both sides).
type receiverState struct {
	i         int64
	syncBurst int
	startTime uint64
	endTime   uint64
	started   bool
	bits      int64
	levels    [4]uint64
	rx        []byte
	trace     []byte
	x         *rng.Xoshiro
	rxS       streamState
	camoPos   int
}

func captureReceiver(r *receiver) receiverState {
	st := receiverState{
		i: r.i, syncBurst: r.syncBurst,
		startTime: r.startTime, endTime: r.endTime, started: r.started,
		bits: r.Bits, levels: r.Levels,
		rx:  append([]byte(nil), r.rx[:r.i]...),
		x:   r.x.Clone(),
		rxS: captureStream(&r.rxS),
	}
	if r.levelTrace != nil {
		st.trace = append([]byte(nil), r.levelTrace[:r.i]...)
	}
	if r.camo != nil {
		st.camoPos = r.camo.pos
	}
	return st
}

func (st *receiverState) restoreInto(r *receiver) {
	r.i, r.syncBurst = st.i, st.syncBurst
	r.startTime, r.endTime, r.started = st.startTime, st.endTime, st.started
	r.Bits, r.Levels = st.bits, st.levels
	copy(r.rx, st.rx)
	if r.levelTrace != nil {
		copy(r.levelTrace, st.trace)
	}
	r.x.CopyStateFrom(st.x)
	st.rxS.restoreInto(&r.rxS)
	if r.camo != nil {
		r.camo.pos = st.camoPos
	}
}

// chainCheckpoint is one published node of the checkpoint tree: the frozen
// state of every simulation component at a bit boundary. Nodes are
// immutable after publication — captures clone, restores copy — so one node
// serves any number of concurrent forks.
type chainCheckpoint struct {
	boundary int64  // bit index the paused agents are about to process
	txHash   uint64 // FNV over tx[:boundary], verified before forking
	ckpt     *hier.Checkpoint
	sched    sched.State
	snd      senderState
	rcv      receiverState
	sync     syncch.State
	noise    []noise.State
}

// chainRun is one Run's view of its chain: the fingerprint key, its own
// final boundary, and the boundaries it may publish.
type chainRun struct {
	e    *Engine // owns the tree this run forks from and publishes to
	key  uint64  // chain fingerprint (config + Chain.Key, payload-length-free)
	tx   []byte
	ownC int64 // own final boundary: len(tx)-1
	// bounds are the chain's publishable boundaries, ascending: one per
	// declared length except the longest (nothing forks from the longest).
	bounds []int64
}

// chainEligible reports whether cfg can participate in the engine's
// checkpoint tree (NoCheckpoints unset): every piece of run state must
// live inside what Clone plus the agent captures cover. Named LLC
// policies, random fill, and quotas are kept out (the warm snapshot's
// gate); counter monitors are dropped by Clone.
func (e *Engine) chainEligible(cfg *Config) bool {
	return cfg.Chain != nil && len(cfg.Chain.Lengths) > 0 && !e.opt.NoCheckpoints &&
		cfg.LLCPolicy == "" && cfg.RandomFillProb == 0 && cfg.Quota == nil &&
		cfg.CounterWindow == 0
}

// chainTxLen maps a payload length to its transmitted-bit count, or -1 when
// the length cannot share a prefix (ECC padding on unaligned lengths).
func chainTxLen(cfg *Config, payloadLen int) int {
	if payloadLen <= 0 {
		return -1
	}
	n := payloadLen
	if cfg.ECC {
		if payloadLen%ecc.DataBits != 0 {
			return -1
		}
		n = ecc.EncodedLen(payloadLen)
	}
	return n + cfg.PreambleBits
}

// chainFingerprint identifies a chain family: the canonical config
// encoding the store key hashes (configTerms) plus the chain key, so two
// runs with equal chain fingerprints differ at most in payload. It keeps no
// field list of its own: the store key's sensitivity audit (store_test.go)
// asserts every keyed field moves it.
func chainFingerprint(cfg *Config) uint64 {
	e := newEnc(512)
	e.configTerms(cfg)
	e.u64(cfg.Chain.Key)
	return fnvBytes(e.b)
}

// fnvBytes is FNV-1a over a byte slice: the transmitted-bit prefix identity
// verified before forking, and the in-memory run identities (chain
// fingerprint and warm-snapshot key) over the canonical config encoding. (Whole payloads are identified
// by the store key, which covers them packed 8 bits per hashed byte.)
func fnvBytes(p []byte) uint64 {
	const prime = 0x100000001b3
	h := params.FNVOffset
	for _, b := range p {
		h = (h ^ uint64(b)) * prime
	}
	return h
}

// newChainRun builds a chain-eligible Run's chain view.
func (e *Engine) newChainRun(cfg *Config, tx []byte) *chainRun {
	c := &chainRun{
		e:    e,
		key:  chainFingerprint(cfg),
		tx:   tx,
		ownC: int64(len(tx)) - 1,
	}
	maxTx := -1
	txLens := make([]int, 0, len(cfg.Chain.Lengths))
	for _, l := range cfg.Chain.Lengths {
		n := chainTxLen(cfg, l)
		if n <= 1 {
			continue
		}
		txLens = append(txLens, n)
		if n > maxTx {
			maxTx = n
		}
	}
	for _, n := range txLens {
		if n == maxTx {
			continue // the longest member's boundary has no forkers
		}
		b := int64(n) - 1
		dup := false
		for _, e := range c.bounds {
			if e == b {
				dup = true
				break
			}
		}
		if !dup {
			c.bounds = append(c.bounds, b)
		}
	}
	// Insertion sort: the ladder is a handful of lengths.
	for i := 1; i < len(c.bounds); i++ {
		for j := i; j > 0 && c.bounds[j] < c.bounds[j-1]; j-- {
			c.bounds[j], c.bounds[j-1] = c.bounds[j-1], c.bounds[j]
		}
	}
	return c
}

// bestFork returns the deepest published checkpoint this run can resume
// from, after verifying the transmitted-bit prefix hash. A mismatch means
// the chain contract was violated (same Key, different payloads); the run
// falls back to a cold start and stays correct.
func (c *chainRun) bestFork() *chainCheckpoint {
	node := c.e.lookupChainNode(c.key, c.ownC)
	if node == nil {
		return nil
	}
	if fnvBytes(c.tx[:node.boundary]) != node.txHash {
		return nil
	}
	return node
}

// preparePause plans this run's checkpoint publications: every chain
// boundary strictly inside the segment it is about to simulate (after the
// fork point, at or before its own final bit) that has no node yet. Returns
// nil when there is nothing to publish, which keeps the agents' hot paths
// on the single nil check.
func (c *chainRun) preparePause(s *sched.Scheduler, fork *chainCheckpoint) *pauseCtl {
	forkC := int64(-1)
	if fork != nil {
		forkC = fork.boundary
	}
	var pend []int64
	for _, b := range c.bounds {
		if b > forkC && b <= c.ownC && !c.e.chainNodeExists(c.key, b) {
			pend = append(pend, b)
		}
	}
	if len(pend) == 0 {
		return nil
	}
	return &pauseCtl{s: s, at: pend[0], pending: pend[1:]}
}

// publish freezes the complete simulation state at the paused boundary and
// offers it to the tree. Failures (a full tree, an un-checkpointable
// hierarchy) are silent: publication is an optimization for *other* runs.
func (c *chainRun) publish(p *pauseCtl, h *hier.Hierarchy, s *sched.Scheduler,
	snd *sender, rcv *receiver, nz []*noise.Workload, sc *syncch.Channel) {
	if c.e.chainNodeExists(c.key, p.at) || !c.e.claimChainNode() {
		return
	}
	ck, err := h.TakeCheckpoint()
	if err != nil {
		return
	}
	node := &chainCheckpoint{
		boundary: p.at,
		txHash:   fnvBytes(c.tx[:p.at]),
		ckpt:     ck,
		snd:      captureSender(snd),
		rcv:      captureReceiver(rcv),
		sync:     sc.SaveState(),
	}
	s.Snapshot(&node.sched)
	for _, w := range nz {
		node.noise = append(node.noise, w.SaveState())
	}
	c.e.storeChainNode(c.key, node)
}

// restoreFork rewinds a freshly built agent roster to a checkpoint. The
// roster shape (agent count and order) is a pure function of the config,
// which the chain fingerprint covers; the length check is a backstop.
func (c *chainRun) restoreFork(node *chainCheckpoint, s *sched.Scheduler,
	snd *sender, rcv *receiver, nz []*noise.Workload, sc *syncch.Channel) error {
	if len(nz) != len(node.noise) {
		return fmt.Errorf("core: chain fork has %d noise agents, checkpoint has %d",
			len(nz), len(node.noise))
	}
	if err := s.Restore(&node.sched); err != nil {
		return err
	}
	node.snd.restoreInto(snd)
	node.rcv.restoreInto(rcv)
	sc.RestoreState(node.sync)
	for i, w := range nz {
		w.RestoreState(node.noise[i])
	}
	return nil
}
