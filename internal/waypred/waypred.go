// Package waypred models the AMD L1 way predictor exploited by the
// Take-A-Way attack (Lipp et al., AsiaCCS 2020), the fastest same-core
// baseline the paper compares against (Table 6).
//
// AMD's L1 data cache predicts the way of an access from a µTag — a hash
// of virtual-address bits — instead of comparing full tags in every way.
// Two addresses whose µTags collide cannot coexist: an access to one
// "takes away" the predictor entry (and effectively the L1 residency) of
// the other, giving the colluding pair a fast/slow timing signal without
// any flushes or shared memory.
package waypred

import (
	"streamline/internal/mem"
	"streamline/internal/rng"
)

// Config describes the predictor and its timing.
type Config struct {
	// Sets is the number of L1 sets (VA bits [11:6] on AMD Zen: 64).
	Sets int
	// HashBits is the width of the µTag; colliding addresses share all
	// HashBits of the hash.
	HashBits int
	// HitLatency is a correctly predicted L1 hit; MissLatency is the
	// penalty path (µTag mismatch, way mispredict, or L1 miss) that the
	// receiver times. JitterSD adds measurement noise.
	HitLatency  int
	MissLatency int
	JitterSD    float64
	// MispredictNoise is the probability that an unrelated event (other
	// thread activity, predictor update races) flips an entry, the source
	// of Take-A-Way's 1-3% error floor.
	MispredictNoise float64
}

// DefaultConfig returns Zen-like parameters.
func DefaultConfig() Config {
	return Config{
		Sets:            64,
		HashBits:        8,
		HitLatency:      4,
		MissLatency:     12,
		JitterSD:        1.0,
		MispredictNoise: 0.022,
	}
}

// Predictor is the µTag table: one owner µTag per (set, way-group) entry.
// The model collapses the way dimension: within a set, a µTag value maps
// to one entry, and loading an address claims its entry.
type Predictor struct {
	cfg   Config   // table shape, fixed at construction
	owner []uint32 // per (set << HashBits | utag): owning address hash, 0 = free
	x     *rng.Xoshiro

	// Stats
	Accesses    uint64
	Mispredicts uint64
}

// New returns a predictor with the given config.
func New(cfg Config, seed uint64) *Predictor {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		panic("waypred: set count must be a positive power of two")
	}
	return &Predictor{
		cfg:   cfg,
		owner: make([]uint32, cfg.Sets<<cfg.HashBits),
		x:     rng.New(seed),
	}
}

// setOf extracts the L1 set from VA bits [11:6].
func (p *Predictor) setOf(a mem.Addr) int {
	return int(uint64(a)>>6) & (p.cfg.Sets - 1)
}

// utagOf hashes the address tag bits into HashBits, xor-folding like the
// reverse-engineered Zen hash.
func (p *Predictor) utagOf(a mem.Addr) uint32 {
	v := uint64(a) >> 12
	mask := uint64(1)<<p.cfg.HashBits - 1
	h := uint64(0)
	for v != 0 {
		h ^= v & mask
		v >>= p.cfg.HashBits
	}
	return uint32(h)
}

// ident returns a non-zero identifier for the address used as the entry
// owner.
func ident(a mem.Addr) uint32 {
	return uint32(uint64(a)>>6)&0x7fffffff | 0x80000000
}

// Collide reports whether two addresses contend for the same predictor
// entry (same set, same µTag) without being the same line.
func (p *Predictor) Collide(a, b mem.Addr) bool {
	if uint64(a)>>6 == uint64(b)>>6 {
		return false
	}
	return p.setOf(a) == p.setOf(b) && p.utagOf(a) == p.utagOf(b)
}

// FindCollision searches upward from base for an address whose µTag
// collides with a. It panics if none is found within a huge range (cannot
// happen with a folding hash).
func (p *Predictor) FindCollision(a mem.Addr, base mem.Addr) mem.Addr {
	// Preserve the set: step in multiples of Sets*64 bytes.
	step := mem.Addr(p.cfg.Sets * 64)
	cand := base + mem.Addr(p.setOf(a)*64) - mem.Addr(p.setOf(base)*64)
	for i := 0; i < 1<<22; i++ {
		if p.Collide(a, cand) {
			return cand
		}
		cand += step
	}
	panic("waypred: no µTag collision found")
}

// Access performs a load and returns its observed latency in cycles. A
// load whose entry is owned by a different address (or unowned) takes the
// slow path and claims the entry.
func (p *Predictor) Access(a mem.Addr) int {
	p.Accesses++
	idx := p.setOf(a)<<p.cfg.HashBits | int(p.utagOf(a))
	id := ident(a)
	fast := p.owner[idx] == id
	if fast && p.cfg.MispredictNoise > 0 && p.x.Float64() < p.cfg.MispredictNoise {
		fast = false
		p.Mispredicts++
	}
	p.owner[idx] = id
	lat := p.cfg.MissLatency
	if fast {
		lat = p.cfg.HitLatency
	}
	lat += int(p.x.Norm() * p.cfg.JitterSD)
	if lat < 1 {
		lat = 1
	}
	return lat
}

// Threshold returns the decision boundary between the fast and slow paths.
func (p *Predictor) Threshold() int {
	return (p.cfg.HitLatency + p.cfg.MissLatency) / 2
}
