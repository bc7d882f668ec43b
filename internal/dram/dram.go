// Package dram models main-memory access latency for LLC misses.
//
// The model is deliberately simple but captures the three effects the
// Streamline evaluation depends on:
//
//  1. A mean LLC-miss latency around 285 cycles (Section 4.1), composed of
//     the LLC lookup plus row-buffer-dependent DRAM timing and bounded
//     pseudo-random jitter.
//  2. A fast tail: a small fraction of misses complete below the receiver's
//     180-cycle threshold (open row, idle bank, lucky queueing) and decode
//     as spurious LLC hits. These are the paper's 1→0 bit errors
//     (Section 4.3), which it observes to be randomly distributed
//     single-bit events.
//  3. Queueing: each access occupies its bank and the shared channel for a
//     while; concurrent traffic (the stress-ng co-runners of Section 4.7)
//     inflates latency, reproducing the measured bit-rate dip under noise.
package dram

import (
	"fmt"
	"math/bits"

	"streamline/internal/mem"
	"streamline/internal/rng"
)

// Config parameterizes the DRAM model. The zero value is not useful; start
// from DefaultConfig.
type Config struct {
	Banks       int // number of banks (power of two)
	RowBytes    int // row-buffer span; consecutive addresses in a row hit
	RowHit      int // total load-to-use latency on a row-buffer hit
	RowMiss     int // ... on a closed row (activate + read)
	RowConflict int // ... on a row conflict (precharge + activate + read)
	JitterSD    int // stddev of bounded Gaussian jitter in cycles
	// BankBusy and ChannelBusy are the cycles an access occupies its bank
	// and the shared channel; queued accesses wait for both.
	BankBusy    int
	ChannelBusy int
	// RowCloseCycles is how long a row stays open with no traffic to its
	// bank before the idle-timer closes it.
	RowCloseCycles int
	// FastTailProb is the probability that a miss completes on the fast
	// path; FastTailLat is the (sub-threshold) latency it then gets.
	FastTailProb float64
	FastTailLat  int
	// MinLatency clamps the final sample.
	MinLatency int
}

// DefaultConfig returns timings calibrated so the mean miss latency is
// ~285 cycles on an otherwise idle machine, with a fast tail just under the
// paper's 180-cycle threshold.
func DefaultConfig() Config {
	return Config{
		Banks:       16,
		RowBytes:    8192,
		RowHit:      235,
		RowMiss:     285,
		RowConflict: 335,
		JitterSD:    12,
		BankBusy:    24,
		ChannelBusy: 6,
		// A short idle-close timer models an adaptive/closed-page
		// controller: isolated misses (the channel's ~500-cycle-spaced
		// loads) pay the full activate cost, while dense streaming
		// bursts still enjoy row-buffer hits.
		RowCloseCycles: 400,
		FastTailProb:   0.0020,
		FastTailLat:    165,
		MinLatency:     120,
	}
}

// ScaledConfig returns DefaultConfig rescaled for a platform whose mean
// LLC-miss latency is missMean cycles and whose hit/miss decision boundary
// is threshold cycles (the defaults are calibrated for Skylake's 285/180).
// The fast tail lands just under the threshold, preserving the 1→0 error
// mechanism across platforms.
func ScaledConfig(missMean, threshold int) Config {
	cfg := DefaultConfig()
	scale := float64(missMean) / float64(cfg.RowMiss)
	mul := func(v int) int {
		s := int(float64(v) * scale)
		if s < 1 {
			s = 1
		}
		return s
	}
	cfg.RowHit = mul(cfg.RowHit)
	cfg.RowMiss = missMean
	cfg.RowConflict = mul(cfg.RowConflict)
	cfg.JitterSD = mul(cfg.JitterSD)
	cfg.BankBusy = mul(cfg.BankBusy)
	cfg.ChannelBusy = mul(cfg.ChannelBusy)
	cfg.FastTailLat = threshold - mul(15)
	cfg.MinLatency = mul(cfg.MinLatency)
	if cfg.MinLatency > cfg.FastTailLat {
		cfg.MinLatency = cfg.FastTailLat
	}
	return cfg
}

// Model is a deterministic DRAM latency model. Not safe for concurrent use;
// the simulator is single-threaded by design.
type Model struct {
	cfg Config //detlint:lifecycle-skip timing/geometry configuration fixed at construction
	x   *rng.Xoshiro

	bankMask    uint64  //detlint:lifecycle-skip derived from cfg.Banks at construction, immutable
	rowShift    uint    //detlint:lifecycle-skip derived from cfg.RowBytes at construction, immutable
	rowOpen     []int64 // open row id per bank, -1 if closed
	bankFree    []uint64
	bankLastUse []uint64
	chanFree    uint64

	// Stats
	Accesses  uint64
	RowHits   uint64
	RowMisses uint64
	Conflicts uint64
	FastTails uint64
}

// Validate checks the geometry the model's address arithmetic relies on:
// the bank count and the row span must both be positive powers of two, so
// bank and row selection reduce to a mask and a shift.
func (c Config) Validate() error {
	if c.Banks <= 0 || c.Banks&(c.Banks-1) != 0 {
		return fmt.Errorf("dram: bank count %d is not a positive power of two", c.Banks)
	}
	if c.RowBytes <= 0 || c.RowBytes&(c.RowBytes-1) != 0 {
		return fmt.Errorf("dram: row size %d is not a positive power of two", c.RowBytes)
	}
	return nil
}

// New returns a DRAM model with the given config and seed. It panics if
// the config fails Validate.
func New(cfg Config, seed uint64) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	m := &Model{
		cfg:         cfg,
		x:           rng.New(seed),
		bankMask:    uint64(cfg.Banks - 1),
		rowShift:    uint(bits.TrailingZeros64(uint64(cfg.RowBytes))),
		rowOpen:     make([]int64, cfg.Banks),
		bankFree:    make([]uint64, cfg.Banks),
		bankLastUse: make([]uint64, cfg.Banks),
	}
	for i := range m.rowOpen {
		m.rowOpen[i] = -1
	}
	return m
}

// bankOf maps an address to a bank: line-interleaved across banks so
// adjacent cache lines hit different banks, like real channel interleaving.
func (m *Model) bankOf(a mem.Addr) int {
	return int((uint64(a) >> 6) & m.bankMask)
}

// rowOf maps an address to its row. RowBytes is a power of two (Validate),
// so the shift equals the division it replaces, without a 64-bit divide on
// every access.
func (m *Model) rowOf(a mem.Addr) int64 {
	return int64(uint64(a) >> m.rowShift)
}

// Latency returns the total load-to-use latency in cycles for an LLC miss
// to addr issued at time now, and advances the model's queue/row state.
func (m *Model) Latency(now uint64, addr mem.Addr) int {
	m.Accesses++
	bank := m.bankOf(addr)
	row := m.rowOf(addr)

	// Queueing: wait for channel and bank.
	var wait uint64
	if m.chanFree > now {
		wait = m.chanFree - now
	}
	start := now + wait
	if m.bankFree[bank] > start {
		wait += m.bankFree[bank] - start
		start = m.bankFree[bank]
	}

	// Idle-timer row close.
	if m.rowOpen[bank] >= 0 && start > m.bankLastUse[bank]+uint64(m.cfg.RowCloseCycles) {
		m.rowOpen[bank] = -1
	}

	var base int
	switch {
	case m.rowOpen[bank] == row:
		base = m.cfg.RowHit
		m.RowHits++
	case m.rowOpen[bank] < 0:
		base = m.cfg.RowMiss
		m.RowMisses++
	default:
		base = m.cfg.RowConflict
		m.Conflicts++
	}
	m.rowOpen[bank] = row
	m.bankLastUse[bank] = start
	m.bankFree[bank] = start + uint64(m.cfg.BankBusy)
	m.chanFree = now + wait + uint64(m.cfg.ChannelBusy)

	if m.cfg.FastTailProb > 0 && m.x.Float64() < m.cfg.FastTailProb {
		m.FastTails++
		lat := m.cfg.FastTailLat + m.x.Intn(11) - 5
		if lat < m.cfg.MinLatency {
			lat = m.cfg.MinLatency
		}
		return lat
	}

	lat := base + int(wait) + int(m.x.Norm()*float64(m.cfg.JitterSD))
	if lat < m.cfg.MinLatency {
		lat = m.cfg.MinLatency
	}
	return lat
}
