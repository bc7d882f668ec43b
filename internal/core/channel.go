package core

import (
	"fmt"

	"streamline/internal/cache"
	"streamline/internal/ecc"
	"streamline/internal/hier"
	"streamline/internal/mem"
	"streamline/internal/noise"
	"streamline/internal/pattern"
	"streamline/internal/payload"
	"streamline/internal/resultstore"
	"streamline/internal/rng"
	"streamline/internal/sched"
	"streamline/internal/stats"
	"streamline/internal/syncch"
	"streamline/internal/tlb"
)

// GapSample is one (bits transmitted, sender-receiver gap) observation.
type GapSample struct {
	Bits int64
	Gap  int64
}

// Result reports one channel run. RunAttack and RunXYProbe report their
// runs in it too, filling the fields their doc comments name.
type Result struct {
	// PayloadBits is the number of data bits the caller asked to send.
	PayloadBits int
	// ChannelBits is the number of bits actually transmitted on the
	// channel (payload, plus ECC expansion if enabled).
	ChannelBits int
	// Cycles is the receiver's start-to-end time.
	Cycles uint64
	// BitRateKBps is the payload bit-rate in KB/s, the paper's metric:
	// with ECC enabled this is the effective data rate.
	BitRateKBps float64
	// ChannelKBps is the raw channel bit-rate (equals BitRateKBps without
	// ECC).
	ChannelKBps float64
	// Errors is the payload-level bit-error breakdown (post-correction
	// when ECC is on).
	Errors stats.ErrorBreakdown
	// RawErrors is the channel-level breakdown before any correction.
	RawErrors stats.ErrorBreakdown
	// ECCStats reports packet corrections/detections when ECC is on.
	ECCStats ecc.Result
	// MaxGap is the largest sender-receiver gap observed (bits).
	MaxGap int64
	// GapSamples traces the gap over time when Config.GapSampleEvery > 0.
	GapSamples []GapSample
	// SyncWaits and SyncTimeouts count epoch-boundary waits and fail-safe
	// resumes.
	SyncWaits, SyncTimeouts uint64
	// Decoded is the recovered payload, packed 8 bits per byte: Decoded.At(i)
	// is payload bit i as the receiver decoded it, and Decoded.Bytes() is
	// the received payload bytes when PayloadBits is a multiple of 8.
	Decoded payload.Bits
	// ReceiverLevels counts the receiver's decoded loads by serving level
	// (L1, L2, LLC, DRAM).
	ReceiverLevels [4]uint64
	// CoreServed holds the per-core hierarchy counters (L1, L2, LLC,
	// DRAM) for the whole run — what a performance-counter detector
	// (Section 7) would read.
	CoreServed [][4]uint64
	// BurstSingleFrac01 and BurstSingleFrac10 are the fractions of
	// physical-level error bursts of length one, per direction. The paper
	// observes (Section 4.3) that 1→0 errors (latency tail) are isolated
	// single-bit events while 0→1 errors (evictions) arrive in bursts.
	BurstSingleFrac01, BurstSingleFrac10 float64
	// MaxBurst01 is the longest 0→1 error burst observed.
	MaxBurst01 int
	// LevelTrace holds each channel bit's serving level when
	// Config.TraceLevels is set.
	LevelTrace []byte
	// Counters holds the per-core performance-counter windows recorded
	// when Config.CounterWindow > 0 (windows of CounterWindow cycles,
	// starting after warmup). Feed them to internal/defense to score the
	// run's detectability.
	Counters []hier.CounterWindow
}

// BitPeriodCycles returns the average cycles per channel bit.
func (r *Result) BitPeriodCycles() float64 {
	if r.ChannelBits == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.ChannelBits)
}

// Run transmits payloadBits (a 0/1 vector) over the channel described by
// cfg and returns the measured Result.
func (e *Engine) Run(cfg Config, payloadBits []byte) (*Result, error) {
	return e.runPayload(cfg, payloadSrc{bits: payloadBits})
}

// RunRandom returns exactly Run(cfg, payload.Random(seed, n)), but names
// the payload by its generator inputs rather than its bits: the store key
// is built from (seed, n), so a run served by the result store never
// materializes the payload at all (see storeKey).
func (e *Engine) RunRandom(cfg Config, seed uint64, n int) (*Result, error) {
	return e.runPayload(cfg, payloadSrc{gen: true, seed: seed, n: n})
}

// payloadSrc is a run's payload: explicit bits, or the inputs of
// payload.Random, generated only when the run actually simulates.
type payloadSrc struct {
	bits []byte
	gen  bool
	seed uint64
	n    int
}

func (p *payloadSrc) bitLen() int {
	if p.gen {
		return p.n
	}
	return len(p.bits)
}

// materialize returns the payload bits, generating them on first use.
func (p *payloadSrc) materialize() []byte {
	if p.gen && p.bits == nil {
		p.bits = payload.Random(p.seed, p.n)
	}
	return p.bits
}

// runPayload is the one path behind Run and RunRandom; only the payload
// term of the store key differs between them.
func (e *Engine) runPayload(cfg Config, src payloadSrc) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if src.bitLen() <= 0 {
		return nil, fmt.Errorf("core: empty payload")
	}

	// Serve-before-build: the store key depends only on config and payload
	// (store.go), never on the transmitted stream, so every run consults
	// the result store before spending anything on the payload bits, ECC,
	// preamble, or modulation, or checking out a simulator. Under warm
	// serving traffic the whole call is one key hash plus a memory read.
	// Chain is excluded from the key, so chained and unchained runs of one
	// config × payload meet in one entry.
	return e.serve(func() resultstore.Key { return storeKey(&cfg, &src) },
		func() (*Result, error) { return e.simulate(cfg, src) })
}

// simulate runs one validated channel on a simulator from the reuse
// layers: a clone of a chain checkpoint, a clone of the warm snapshot, or a
// fresh hierarchy.
func (e *Engine) simulate(cfg Config, src payloadSrc) (*Result, error) {
	// Build the transmitted bit stream (it needs no simulator): the payload
	// itself, optional ECC, an optional transient-burning preamble, then
	// optional PRNG modulation.
	payloadBits := src.materialize()
	chanBits := payloadBits
	if cfg.ECC {
		chanBits = ecc.Encode(payloadBits)
	}
	stream := chanBits
	if cfg.PreambleBits > 0 {
		stream = append(payload.Random(cfg.KeySeed^0x9aeab1e, cfg.PreambleBits), chanBits...)
	}
	tx := stream
	if cfg.Modulate {
		tx = payload.Modulate(stream, cfg.KeySeed)
	}

	// Chain runs (Config.Chain): a prefix-sharing sibling may have
	// published a checkpoint to fork from (see checkpoint.go).
	var chain *chainRun
	if e.chainEligible(&cfg) {
		chain = e.newChainRun(&cfg, tx)
	}
	var lease *simLease
	var fork *chainCheckpoint
	if chain != nil {
		if fork = chain.bestFork(); fork != nil {
			lease = &simLease{h: fork.ckpt.Materialize(), warmed: true}
			e.ctr.forks.Add(1)
		}
	}
	if lease == nil {
		var err error
		lease, err = e.acquireSim(&cfg)
		if err != nil {
			return nil, err
		}
	}
	e.ctr.sims.Add(1)
	defer e.releaseSim(lease)
	h := lease.h
	alloc := mem.NewAllocator(cfg.Machine.PageSize)
	arr := alloc.Alloc(cfg.ArraySize)
	syncRegion := alloc.Alloc(syncch.RegionBytes(h))

	var pat pattern.Pattern = pattern.NewStreamline(h.Geometry())
	if cfg.NaivePattern {
		pat = pattern.NewNaivePerPage(h.Geometry())
	}

	sc, err := syncch.New(h, syncRegion)
	if err != nil {
		return nil, err
	}
	// Camouflage buffers: private per-agent regions whose lines stay warm
	// in the LLC, supplying the hit traffic that dilutes each agent's
	// miss ratio (Config.CamouflageAccesses).
	var sndCamo, rcvCamo *camo
	if cfg.CamouflageAccesses > 0 {
		sndCamo = newCamo(h, cfg.SenderCore, alloc.Alloc(1<<20), cfg.CamouflageAccesses)
		rcvCamo = newCamo(h, cfg.ReceiverCore, alloc.Alloc(1<<20), cfg.CamouflageAccesses)
	}
	snd, rcv := buildAgents(&cfg, h, arr, pat, tx, sc, sndCamo, rcvCamo)

	// Setup-time page faulting: the sender's initialization walks the
	// start of the shared file, leaving those lines warm (see
	// Config.WarmupBytes).
	if w := cfg.WarmupBytes; w > 0 && !lease.warmed {
		if w > cfg.ArraySize {
			w = cfg.ArraySize
		}
		if lease.record {
			h.StartRecording()
		}
		// Setup time is not simulated, so every warmup load issues at time
		// zero (BatchClock.Hold); the batch kernel walks each chunk of lines
		// in one call.
		lineBytes := h.Geometry().LineBytes
		buf := make([]mem.Addr, 0, addrChunk)
		for off := 0; off < w; off += lineBytes {
			buf = append(buf, arr.AddrAt(off))
			if len(buf) == addrChunk || off+lineBytes >= w {
				h.AccessBatch(cfg.SenderCore, buf, 0, hier.BatchClock{Hold: true})
				buf = buf[:0]
			}
		}
		if lease.record {
			e.storeSnapshot(lease.snapKey, h, h.StopRecording())
			lease.record = false
		}
	}

	// The monitor attaches after warmup (setup-time page faulting is not
	// something a runtime detector samples), so the counter trace is
	// identical whether the warm state was replayed or rebuilt.
	var mon *hier.Monitor
	if cfg.CounterWindow > 0 {
		mon = hier.NewMonitor(cfg.Machine.Cores, cfg.CounterWindow)
		h.AttachMonitor(mon)
	}

	var s sched.Scheduler
	s.MaxSteps = uint64(len(tx))*64 + 1<<22
	s.Reserve(3 + len(cfg.Noise))
	s.Add(snd, 0)
	// The receiver sleeps through the sender's head start.
	recvStart := uint64(cfg.DelayedStartBits) * 240
	s.Add(rcv, recvStart)

	noiseCore := pickNoiseCore(&cfg)
	var noiseAgents []*noise.Workload
	for i, ncfg := range cfg.Noise {
		w := noise.New(ncfg, h, noiseCore, alloc, cfg.Seed^uint64(0x9015e+i))
		noiseAgents = append(noiseAgents, w)
		s.AddBackground(w, 0)
	}
	if cfg.SystemNoise {
		os := noise.Config{Name: "os-background", Shape: noise.Rand,
			Footprint: 4 << 20, ComputeGap: 2000}
		w := noise.New(os, h, noiseCore, alloc, cfg.Seed^0x05)
		noiseAgents = append(noiseAgents, w)
		s.AddBackground(w, 0)
	}

	// Chain plumbing: rewind the roster to the fork's checkpoint, and plan
	// the boundaries this run publishes on its way through new territory.
	var pause *pauseCtl
	if chain != nil {
		if fork != nil {
			if err := chain.restoreFork(fork, &s, snd, rcv, noiseAgents, sc); err != nil {
				return nil, err
			}
		}
		if pause = chain.preparePause(&s, fork); pause != nil {
			snd.pause = pause
			rcv.pause = pause
		}
	}

	var runErr error
	if fork != nil {
		_, runErr = s.Resume()
	} else {
		_, runErr = s.Run()
	}
	for runErr == sched.ErrPaused {
		// An agent yielded at a checkpoint boundary: freeze the complete
		// state for the chain's longer members, then continue.
		chain.publish(pause, h, &s, snd, rcv, noiseAgents, sc)
		pause.advance()
		_, runErr = s.Resume()
	}
	if runErr != nil {
		return nil, runErr
	}
	var counters []hier.CounterWindow
	if mon != nil {
		counters = mon.Windows()
	}

	res := &Result{
		PayloadBits:    len(payloadBits),
		ChannelBits:    len(tx),
		Cycles:         rcv.endTime - rcv.startTime,
		SyncWaits:      snd.SyncWaits,
		SyncTimeouts:   snd.SyncTimeouts,
		ReceiverLevels: rcv.Levels,
		// h is dropped when the run ends (snapshots and checkpoints hold
		// clones), so the Result can keep its counters.
		CoreServed: h.ServedPerCore,
		LevelTrace: rcv.levelTrace,
		MaxGap:     snd.maxGap,
		GapSamples: snd.gaps,
		Counters:   counters,
	}

	// RawErrors compares at the physical channel level (transmitted bits
	// vs decoded hits/misses), which is where the 0→1 / 1→0 direction is
	// meaningful: 0→1 is a premature eviction, 1→0 a spurious hit. The
	// preamble region is excluded: it exists to absorb the transient.
	pre := cfg.PreambleBits
	if pre < 0 {
		pre = 0
	}
	res.RawErrors, err = stats.Compare(tx[pre:], rcv.rx[pre:])
	if err != nil {
		return nil, err
	}
	zoStats, ozStats := stats.DirectionalBurstStats(tx[pre:], rcv.rx[pre:])
	res.BurstSingleFrac01 = zoStats.SingleFraction()
	res.BurstSingleFrac10 = ozStats.SingleFraction()
	res.MaxBurst01 = zoStats.Max
	// Decode: demodulate, drop the preamble, then ECC-correct.
	rxChan := rcv.rx
	if cfg.Modulate {
		rxChan = payload.Demodulate(rxChan, cfg.KeySeed)
	}
	rxChan = rxChan[pre:]
	decoded := rxChan
	if cfg.ECC {
		var eccRes ecc.Result
		decoded, eccRes, err = ecc.Decode(rxChan)
		if err != nil {
			return nil, err
		}
		res.ECCStats = eccRes
		decoded = decoded[:len(payloadBits)]
	}
	res.Errors, err = stats.Compare(payloadBits, decoded)
	if err != nil {
		return nil, err
	}
	res.Decoded = payload.Pack(decoded)

	secs := float64(res.Cycles) / (float64(cfg.Machine.FreqMHz) * 1e6)
	if secs > 0 {
		res.BitRateKBps = float64(res.PayloadBits) / 8192.0 / secs
		res.ChannelKBps = float64(res.ChannelBits) / 8192.0 / secs
	}
	return res, nil
}

// buildHierOptions maps a validated Config to the hierarchy options Run
// builds its simulator with.
func buildHierOptions(cfg *Config) hier.Options {
	hopt := hier.Options{
		DisablePrefetch: cfg.DisablePrefetch,
		DRAM:            cfg.DRAM,
		Seed:            cfg.Seed,
		RandomFillProb:  cfg.RandomFillProb,
		Quota:           cfg.Quota,
	}
	if cfg.LLCPolicy != "" {
		// validate accepted the name. The policy draws from its own
		// stream, decorrelated from the simulator's.
		hopt.LLCPolicy, _ = cache.NewNamed(cfg.LLCPolicy, rng.Derive(cfg.Seed, 1))
	}
	if !cfg.HugePages {
		t := tlb.Skylake4K()
		hopt.TLB = &t
	}
	if cfg.PartitionWays > 0 {
		// Sender and receiver land in separate trust domains; everything
		// else shares the sender's.
		hopt.PartitionWays = cfg.PartitionWays
		domains := make([]int, cfg.Machine.Cores)
		domains[cfg.ReceiverCore] = 1
		hopt.CoreDomains = domains
	}
	return hopt
}

// agentArena backs one run's agents with a single allocation: both agent
// structs plus the three address chunk buffers their per-bit loops walk.
type agentArena struct {
	snd  sender
	rcv  receiver
	bufs [3 * addrChunk]mem.Addr
}

// buildAgents constructs the channel's two agents with every buffer their
// per-bit loops touch sized up front: the address chunk buffers, the
// receiver's decode vector and optional level trace, and the sender's gap
// trace. After construction the steady-state Step paths allocate nothing
// (pinned by TestStepZeroAllocs).
func buildAgents(cfg *Config, h *hier.Hierarchy, arr mem.Region, pat pattern.Pattern,
	tx []byte, sc *syncch.Channel, sndCamo, rcvCamo *camo) (*sender, *receiver) {
	a := &agentArena{}
	rcv := &a.rcv
	*rcv = receiver{
		cfg:  cfg,
		h:    h,
		rx:   make([]byte, len(tx)),
		sync: sc,
		camo: rcvCamo,
		x:    rng.New(cfg.Seed ^ 0x4ecf),
		rxS:  newAddrStream(pat, arr, a.bufs[0:addrChunk:addrChunk]),
	}
	if cfg.TraceLevels {
		rcv.levelTrace = make([]byte, len(tx))
	}
	snd := &a.snd
	*snd = sender{
		cfg:      cfg,
		h:        h,
		tx:       tx,
		sync:     sc,
		camo:     sndCamo,
		x:        rng.New(cfg.Seed ^ 0x5e4d),
		recvI:    &rcv.Bits,
		gapEvery: int64(cfg.GapSampleEvery),
		txS:      newAddrStream(pat, arr, a.bufs[addrChunk:2*addrChunk:2*addrChunk]),
		trailS:   newAddrStream(pat, arr, a.bufs[2*addrChunk:]),
	}
	if snd.gapEvery > 0 {
		// One sample per gapEvery transmitted bits, for the whole run.
		snd.gaps = make([]GapSample, 0, int64(len(tx))/snd.gapEvery+1)
	}
	return snd, rcv
}

// pickNoiseCore returns a core distinct from sender and receiver when the
// machine has one (the paper pins stressors to an adjacent core).
func pickNoiseCore(cfg *Config) int {
	for c := 0; c < cfg.Machine.Cores; c++ {
		if c != cfg.SenderCore && c != cfg.ReceiverCore {
			return c
		}
	}
	return cfg.ReceiverCore
}

// CapacityKBps returns the Shannon-capacity bound on the information rate
// of this run: the raw channel bit-rate discounted by the binary-symmetric-
// channel capacity at the measured raw error rate. It is the ceiling any
// coding scheme (ECC, ARQ, ...) layered on the channel could achieve.
func (r *Result) CapacityKBps() float64 {
	return r.ChannelKBps * stats.BSCCapacity(r.RawErrors.Rate())
}
