// Package rng provides the deterministic pseudo-random number generators the
// simulator and the channel encoding rely on.
//
// Two generators are provided: SplitMix64 (used for seeding and for cheap
// decorrelated streams) and Xoshiro256** (the workhorse for latency jitter,
// noise agents, and payload generation). The channel's keystream
// (Section 3.2 of the paper: TB-i = PB-i XOR PRNG-i) is exposed as
// Keystream, a bit-oriented wrapper that sender and receiver construct from
// the same shared seed.
//
// Determinism matters: every experiment in this repository is reproducible
// bit-for-bit from its seed, so no generator in this package ever consults
// wall-clock time or global state.
package rng

import (
	"encoding/binary"
	"math/bits"
)

// SplitMix64 is Steele et al.'s splitmix64 generator. The zero value is a
// valid generator seeded with 0.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a generator seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 { return &SplitMix64{state: seed} }

// Next returns the next 64-bit value.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Xoshiro is the xoshiro256** generator: fast, 256 bits of state, and
// statistically strong enough for simulation workloads.
type Xoshiro struct {
	s [4]uint64
}

// New returns a Xoshiro generator whose state is expanded from seed via
// SplitMix64, per the authors' recommendation.
func New(seed uint64) *Xoshiro {
	var x Xoshiro
	x.Reseed(seed)
	return &x
}

// Reseed reinitializes the generator in place to exactly the state New(seed)
// would produce, without allocating. Warm replay reseeds the LLC policy's
// and the DRAM model's generators through it (see DESIGN.md "State
// lifecycle").
func (x *Xoshiro) Reseed(seed uint64) {
	sm := NewSplitMix64(seed)
	for i := range x.s {
		x.s[i] = sm.Next()
	}
	// Guard against the (astronomically unlikely) all-zero state, which
	// is the one fixed point of the generator.
	if x.s[0]|x.s[1]|x.s[2]|x.s[3] == 0 {
		x.s[0] = 0x9e3779b97f4a7c15
	}
}

// Clone returns an independent copy of the generator at its current state.
func (x *Xoshiro) Clone() *Xoshiro {
	c := *x
	return &c
}

// CopyStateFrom overwrites the generator's state with src's, in place.
func (x *Xoshiro) CopyStateFrom(src *Xoshiro) { x.s = src.s }

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64-bit value.
func (x *Xoshiro) Uint64() uint64 {
	result := rotl(x.s[1]*5, 7) * 9
	t := x.s[1] << 17
	x.s[2] ^= x.s[0]
	x.s[3] ^= x.s[1]
	x.s[1] ^= x.s[2]
	x.s[0] ^= x.s[3]
	x.s[2] ^= t
	x.s[3] = rotl(x.s[3], 45)
	return result
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (x *Xoshiro) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection-free reduction is fine here: the
	// bias for n << 2^64 is far below anything a simulation can observe.
	hi, _ := bits.Mul64(x.Uint64(), uint64(n))
	return int(hi)
}

// Float64 returns a uniform value in [0, 1).
func (x *Xoshiro) Float64() float64 {
	return float64(x.Uint64()>>11) / (1 << 53)
}

// Norm returns an approximately standard-normal variate using the sum of 12
// uniforms (Irwin-Hall). The tails are truncated at ±6 sigma, which is
// acceptable for latency-jitter modelling and avoids math imports.
//
// The twelve generator steps run on register-resident state copies with a
// single store-back: the hierarchy draws one Norm per DRAM access and per
// decoded bit, and twelve round trips through the heap-resident state
// dominate the naive loop. The value stream is bit-identical to twelve
// Float64 calls — same state transitions, same uniform-to-float conversion,
// same left-to-right summation order (pinned by TestNormMatchesFloat64Sum).
func (x *Xoshiro) Norm() float64 {
	s0, s1, s2, s3 := x.s[0], x.s[1], x.s[2], x.s[3]
	var s float64
	for i := 0; i < 12; i++ {
		r := rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		s += float64(r>>11) / (1 << 53)
	}
	x.s[0], x.s[1], x.s[2], x.s[3] = s0, s1, s2, s3
	return s - 6
}

// FillLowBits sets each dst[i], in order, to the low bit (0 or 1) of the
// generator's next output: the stream payload.Random draws. Like Norm, the
// steps run on register-resident state copies with a single store-back, so
// the bits and the final state are identical to len(dst) calls of
// Uint64()&1 (pinned by TestFillLowBitsMatchesUint64). The low bit of
// rotl(s1*5, 7)*9 is bit 57 of s1*5: rotl moves it to bit 0 and the odd
// multiplier keeps it there.
func (x *Xoshiro) FillLowBits(dst []byte) {
	s0, s1, s2, s3 := x.s[0], x.s[1], x.s[2], x.s[3]
	for i := range dst {
		dst[i] = byte((s1 * 5) >> 57 & 1)
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
	}
	x.s[0], x.s[1], x.s[2], x.s[3] = s0, s1, s2, s3
}

// Keystream produces the shared pseudo-random bit sequence used to modulate
// payload bits (Section 3.2). Sender and receiver each construct one from
// the same seed and must consume bits in lockstep by index.
type Keystream struct {
	x    *Xoshiro
	buf  uint64
	left int
}

// NewKeystream returns a keystream for the given shared seed.
func NewKeystream(seed uint64) *Keystream {
	return &Keystream{x: New(seed)}
}

// Bit returns the next keystream bit as 0 or 1.
func (k *Keystream) Bit() byte {
	if k.left == 0 {
		k.buf = k.x.Uint64()
		k.left = 64
	}
	b := byte(k.buf & 1)
	k.buf >>= 1
	k.left--
	return b
}

// spread8[b] holds bit j of b in the low bit of byte j: one keystream byte
// laid out in the one-bit-per-byte vector form.
var spread8 = func() (t [256]uint64) {
	for b := range t {
		for j := 0; j < 8; j++ {
			t[b] |= uint64(b>>j&1) << (8 * j)
		}
	}
	return t
}()

// XorBits sets dst[i] = src[i]&1 ^ k.Bit() for every i in order, consuming
// len(src) keystream bits: the modulation TB-i = PB-i ^ PRNG-i over a whole
// bit vector. dst must be at least as long as src and may alias it. Output
// and keystream position are identical to the per-bit loop (pinned by
// TestXorBitsMatchesBit). Once the buffered keystream sits on a byte
// boundary, each step takes 8 keystream bits, spreads them through spread8,
// and XORs 8 vector bytes as one word; the unaligned head and the short
// tail fall back to per-bit steps.
func (k *Keystream) XorBits(dst, src []byte) {
	dst = dst[:len(src)]
	i := 0
	for ; i < len(src) && k.left%8 != 0; i++ {
		dst[i] = src[i]&1 ^ k.Bit()
	}
	const low = 0x0101010101010101
	for ; i+8 <= len(src); i += 8 {
		if k.left == 0 {
			k.buf = k.x.Uint64()
			k.left = 64
		}
		w := binary.LittleEndian.Uint64(src[i:]) & low
		binary.LittleEndian.PutUint64(dst[i:], w^spread8[byte(k.buf)])
		k.buf >>= 8
		k.left -= 8
	}
	for ; i < len(src); i++ {
		dst[i] = src[i]&1 ^ k.Bit()
	}
}
