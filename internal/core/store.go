// Result serving (see DESIGN.md §9 "Result store"). Engine.Run consults
// the engine's resultstore.Store (EngineOptions.Store) before building its
// transmitted stream or checking out a simulator: a Result computed once
// under a content key — machine fingerprint × every simulation-steering
// Config field × the full payload (its bits, or the inputs of the pure
// generator that produced them) — is thereafter served as a memory or disk
// read, shared between experiments, CI runs, and daemon jobs. A
// memory-only store (no directory) is the engine's in-RAM result cache for
// one process.
//
// Legality is one rule, made explicit: a key must cover everything that
// can steer the simulation, so two runs with equal keys are bit-identical
// by construction and serving one for the other is unobservable. Every
// Config field is a value (the address pattern and LLC policy are chosen
// by flag and by name), so every run is keyed; none bypasses the store.
// Config.Chain is deliberately excluded from the key: it is a pure
// scheduling optimization, pinned bit-identical by the golden suite's
// checkpoint-off axis, so chained and unchained runs share entries.
//
// The serialized form is a hand-rolled versioned binary codec, not gob:
// served Results must DeepEqual freshly simulated ones exactly, including
// the nil-vs-empty distinction on every slice.

package core

import (
	"fmt"
	"math"

	"streamline/internal/dram"
	"streamline/internal/hier"
	"streamline/internal/payload"
	"streamline/internal/resultstore"
	"streamline/internal/stats"
)

// storeKeySchema versions the canonical key encoding AND the Result codec
// below: any change to either — a field added to the encoding, a codec
// layout change — must bump it, which retires every old entry by changing
// its key rather than risking a misdecode. v2 packed the payload 8 bits
// per hashed byte (see payloadKeyBits); v3 added NaivePattern and
// LLCPolicy; v4 stores Decoded packed 8 bits per byte and LevelTrace at 2
// bits per level.
const storeKeySchema = "streamline-core-result-v4"

// storeKey derives the content address for one Run: an explicit
// field-by-field canonical encoding of everything that steers the
// simulation, hashed to 128 bits.
//
// The encoding is exhaustive by audit, not by reflection: the
// key-sensitivity test (store_test.go) mutates every Config field — and
// every field of the pointed-to DRAM/Quota/Noise sub-configs — and asserts
// the key moves, so a field this function misses fails CI rather than
// silently aliasing distinct runs. Machine is folded via its own audited
// Fingerprint. Chain is the one documented exception (see package comment).
// HugePages is covered directly; the TLB model it selects is a pure
// function of it. The payload term is the bits themselves or, for a
// generated payload, the generator's inputs (payloadKeyGen).
func storeKey(cfg *Config, src *payloadSrc) resultstore.Key {
	capHint := 512
	if !src.gen {
		capHint += len(src.bits)/8 + 1
	}
	e := newEnc(capHint)
	e.keyTerms(cfg, src)
	return resultstore.KeyOf(e.b)
}

// keyTerms appends the canonical encoding storeKey hashes: the config
// terms, then the payload term.
func (e *enc) keyTerms(cfg *Config, src *payloadSrc) {
	e.configTerms(cfg)
	if src.gen {
		e.payloadKeyGen(src.seed, src.n)
	} else {
		e.payloadKeyBits(src.bits)
	}
}

// configTerms appends the canonical encoding of every Config field that
// steers the simulation. It is the one Config field list behind all three
// run identities: the store key, the chain fingerprint (checkpoint.go) and,
// through its dram helper, the warm-snapshot key (reuse.go).
func (e *enc) configTerms(cfg *Config) {
	e.str(storeKeySchema)
	e.u64(cfg.Machine.Fingerprint())
	e.i(cfg.ArraySize)
	e.u64(cfg.Seed)
	e.u64(cfg.KeySeed)
	e.bool(cfg.Modulate)
	e.i(cfg.TrailingLag)
	e.bool(cfg.RateLimitSender)
	e.i(cfg.SyncPeriod)
	e.i(cfg.SyncLead)
	e.i(cfg.DelayedStartBits)
	e.bool(cfg.ECC)
	e.i(cfg.PreambleBits)
	e.i(cfg.SenderCore)
	e.i(cfg.ReceiverCore)
	e.bool(cfg.SameCore)
	e.i(cfg.ThresholdOverride)
	e.bool(cfg.DisablePrefetch)
	e.dram(cfg.DRAM)
	e.bool(cfg.TraceLevels)
	e.bool(cfg.OSJitter)
	e.i(cfg.WarmupBytes)
	e.bool(cfg.HugePages)
	e.bool(cfg.SystemNoise)
	e.i(len(cfg.Noise))
	for _, nc := range cfg.Noise {
		e.str(nc.Name)
		e.i(int(nc.Shape))
		e.i(nc.Footprint)
		e.i(nc.ComputeGap)
		e.i(nc.Stride)
		e.i(nc.Parallel)
	}
	e.i(cfg.GapSampleEvery)
	e.i(cfg.CamouflageAccesses)
	e.i(cfg.PartitionWays)
	e.f64(cfg.RandomFillProb)
	e.quota(cfg.Quota)
	e.u64(cfg.CounterWindow)
	e.i(cfg.GapClamp)
	e.bool(cfg.NaivePattern)
	e.str(cfg.LLCPolicy)
	// Chain: excluded by design; see package comment.
}

// quota appends an optional quota defense: its presence, then every field.
// Channel and attack keys share it.
func (e *enc) quota(q *hier.QuotaConfig) {
	e.bool(q != nil)
	if q == nil {
		return
	}
	e.ints(q.DomainWays)
	e.i(q.MinWays)
	e.i(q.RebalancePeriod)
	e.bool(q.CopyOnAccess)
}

// dram appends an optional DRAM timing override: its presence, then every
// field.
func (e *enc) dram(d *dram.Config) {
	e.bool(d != nil)
	if d == nil {
		return
	}
	e.i(d.Banks)
	e.i(d.RowBytes)
	e.i(d.RowHit)
	e.i(d.RowMiss)
	e.i(d.RowConflict)
	e.i(d.JitterSD)
	e.i(d.BankBusy)
	e.i(d.ChannelBusy)
	e.i(d.RowCloseCycles)
	e.f64(d.FastTailProb)
	e.i(d.FastTailLat)
	e.i(d.MinLatency)
}

// Payload key forms. Each encoding opens with its own tag byte, so the
// three can never alias one another.
const (
	payloadFormRaw    byte = 0 // one byte per bit, any byte values
	payloadFormPacked byte = 1 // 0/1 payload packed 8 bits per byte
	payloadFormGen    byte = 2 // payload.Random(seed, n), by its inputs
)

// payloadGenTag names the generator behind payloadFormGen. The generated
// form is legal only because payload.Random is a pure function of (seed,
// n); TestPayloadRandomPinned pins its output by digest, so any edit to
// payload.Random or the rng stream it draws fails CI until this tag is
// bumped, retiring every entry keyed under the old generator.
const payloadGenTag = "payload.Random/xoshiro256**-lowbit-v1"

// payloadKeyGen appends a generated payload to the key encoding: the
// generator tag, seed and length name the bits exactly without
// materializing them, so the key costs the same at any payload size.
func (e *enc) payloadKeyGen(seed uint64, n int) {
	e.b = append(e.b, payloadFormGen)
	e.str(payloadGenTag)
	e.u64(seed)
	e.i(n)
}

// payloadKeyBits appends the payload to the key encoding. Payloads are
// 0/1 vectors by contract, so the canonical form packs 8 bits per hashed
// byte: SHA-256 over the key bytes dominates the warm-hit serving path at
// paper payload sizes, and packing cuts the hashed volume 8x. A payload
// byte above 1 is out of contract but conceivable from a caller; it
// rewinds to the raw one-byte-per-bit form under a distinct tag, so the
// two encodings can never alias.
func (e *enc) payloadKeyBits(p []byte) {
	mark := len(e.b)
	e.b = append(e.b, payloadFormPacked)
	e.i(len(p)) // length in bits (so a packed tail byte cannot alias a shorter payload)
	var ok bool
	if e.b, ok = payload.AppendPacked(e.b, p); !ok {
		e.b = e.b[:mark]
		e.b = append(e.b, payloadFormRaw)
		e.bytes(p)
	}
}

// serve is the one read-through/write-back path of every stored run
// (Run, RunRandom, RunAttack, RunXYProbe): with a store it returns the
// Result stored under key(), or runs sim and writes its Result back; with
// none it just runs sim. sim counts itself in Counters.Sims once it holds a
// simulator.
func (e *Engine) serve(key func() resultstore.Key, sim func() (*Result, error)) (*Result, error) {
	if e.opt.Store == nil {
		return sim()
	}
	k := key()
	if served := e.storeLookup(k); served != nil {
		return served, nil
	}
	res, err := sim()
	if err == nil {
		e.storePut(k, res)
	}
	return res, err
}

// storeLookup serves the Result stored under key, or nil on a miss. An
// entry that passes the envelope check but fails to decode would mean a
// codec change without a schema bump — unreachable by construction (the
// schema tag is in the key) — and counts as a miss so the write-back heals
// it.
func (e *Engine) storeLookup(key resultstore.Key) *Result {
	if raw, hit := e.opt.Store.Get(key); hit {
		if r, err := decodeResult(raw); err == nil {
			e.ctr.storeHits.Add(1)
			return r
		}
	}
	e.ctr.storeMisses.Add(1)
	return nil
}

// storePut writes a computed Result back under key. The write-back is
// best-effort, an optimization for later readers: a Result the codec cannot
// encode (a LevelTrace level above 3) is not written, and the run that
// produced it returns it all the same.
func (e *Engine) storePut(key resultstore.Key, res *Result) {
	if raw, err := encodeResult(res); err == nil {
		e.opt.Store.Put(key, raw)
	}
}

// --- Result codec ---------------------------------------------------------

// encodeResult serializes a Result into the store payload form decodeResult
// reverses. Field order is fixed; slices carry an explicit nil flag so a
// decoded Result DeepEquals the original exactly. Decoded goes on the wire
// as its packed bytes and LevelTrace at 2 bits per level (DESIGN.md §9
// "Result codec"); a level above 3 has no 2-bit form and is an error. The
// statetest audit in store_test.go pins the field list: a new Result field
// fails the audit until it is added here, to decodeResult, and the schema
// tag is bumped.
func encodeResult(r *Result) ([]byte, error) {
	// The hint is the exact encoded size (253 bytes of scalars and slice
	// headers plus the slices' contents): a memory-only store keeps this
	// very buffer resident, so it should carry no spare capacity.
	n := 253 + 16*len(r.GapSamples) + len(r.Decoded.Bytes()) + 32*len(r.CoreServed) + (len(r.LevelTrace)+3)/4
	for _, w := range r.Counters {
		n += 9 + 32*len(w.PerCore)
	}
	e := newEnc(n)
	e.i(r.PayloadBits)
	e.i(r.ChannelBits)
	e.u64(r.Cycles)
	e.f64(r.BitRateKBps)
	e.f64(r.ChannelKBps)
	e.breakdown(&r.Errors)
	e.breakdown(&r.RawErrors)
	e.i(r.ECCStats.Packets)
	e.i(r.ECCStats.Corrected)
	e.i(r.ECCStats.Detected)
	e.i64(r.MaxGap)
	e.sliceHdr(len(r.GapSamples), r.GapSamples == nil)
	for _, g := range r.GapSamples {
		e.i64(g.Bits)
		e.i64(g.Gap)
	}
	e.u64(r.SyncWaits)
	e.u64(r.SyncTimeouts)
	e.packedBits(r.Decoded)
	for _, v := range r.ReceiverLevels {
		e.u64(v)
	}
	e.sliceHdr(len(r.CoreServed), r.CoreServed == nil)
	for _, c := range r.CoreServed {
		for _, v := range c {
			e.u64(v)
		}
	}
	e.f64(r.BurstSingleFrac01)
	e.f64(r.BurstSingleFrac10)
	e.i(r.MaxBurst01)
	if err := e.levels(r.LevelTrace); err != nil {
		return nil, err
	}
	e.sliceHdr(len(r.Counters), r.Counters == nil)
	for _, w := range r.Counters {
		e.sliceHdr(len(w.PerCore), w.PerCore == nil)
		for _, c := range w.PerCore {
			for _, v := range c {
				e.u64(v)
			}
		}
	}
	return e.b, nil
}

// decodeResult reverses encodeResult, validating every length against the
// remaining input; any structural mismatch returns an error and the caller
// re-simulates.
func decodeResult(raw []byte) (*Result, error) {
	d := &dec{b: raw}
	r := &Result{}
	r.PayloadBits = d.i()
	r.ChannelBits = d.i()
	r.Cycles = d.u64()
	r.BitRateKBps = d.f64()
	r.ChannelKBps = d.f64()
	d.breakdown(&r.Errors)
	d.breakdown(&r.RawErrors)
	r.ECCStats.Packets = d.i()
	r.ECCStats.Corrected = d.i()
	r.ECCStats.Detected = d.i()
	r.MaxGap = d.i64()
	if n, isNil := d.sliceHdr(16); !isNil {
		r.GapSamples = make([]GapSample, n)
		for i := range r.GapSamples {
			r.GapSamples[i].Bits = d.i64()
			r.GapSamples[i].Gap = d.i64()
		}
	}
	r.SyncWaits = d.u64()
	r.SyncTimeouts = d.u64()
	r.Decoded = d.packedBits()
	for i := range r.ReceiverLevels {
		r.ReceiverLevels[i] = d.u64()
	}
	if n, isNil := d.sliceHdr(32); !isNil {
		r.CoreServed = make([][4]uint64, n)
		for i := range r.CoreServed {
			for j := range r.CoreServed[i] {
				r.CoreServed[i][j] = d.u64()
			}
		}
	}
	r.BurstSingleFrac01 = d.f64()
	r.BurstSingleFrac10 = d.f64()
	r.MaxBurst01 = d.i()
	r.LevelTrace = d.levels()
	if n, isNil := d.sliceHdr(1); !isNil {
		r.Counters = make([]hier.CounterWindow, n)
		for i := range r.Counters {
			if m, innerNil := d.sliceHdr(32); !innerNil {
				r.Counters[i].PerCore = make([][4]uint64, m)
				for j := range r.Counters[i].PerCore {
					for k := range r.Counters[i].PerCore[j] {
						r.Counters[i].PerCore[j][k] = d.u64()
					}
				}
			}
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != d.off {
		return nil, fmt.Errorf("core: result codec: %d trailing bytes", len(d.b)-d.off)
	}
	return r, nil
}

// enc is a little-endian append-only encoder shared by the key derivation
// and the Result codec.
type enc struct{ b []byte }

func newEnc(capHint int) *enc { return &enc{b: make([]byte, 0, capHint)} }

func (e *enc) u64(v uint64) {
	e.b = append(e.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
func (e *enc) i(v int)       { e.u64(uint64(int64(v))) }
func (e *enc) i64(v int64)   { e.u64(uint64(v)) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *enc) bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}
func (e *enc) str(s string) {
	e.i(len(s))
	e.b = append(e.b, s...)
}
func (e *enc) ints(v []int) {
	e.i(len(v))
	for _, x := range v {
		e.i(x)
	}
}
func (e *enc) bytes(p []byte) {
	e.i(len(p))
	e.b = append(e.b, p...)
}

// sliceHdr writes a slice's nil flag and length (nil and empty are distinct
// on the wire, as they must round-trip distinctly).
func (e *enc) sliceHdr(n int, isNil bool) {
	e.bool(isNil)
	e.i(n)
}

// packedBits writes a packed bit vector: its nil flag, its length in bits,
// then its ceil(n/8) packed bytes.
func (e *enc) packedBits(x payload.Bits) {
	p := x.Bytes()
	e.sliceHdr(x.Len(), p == nil)
	e.b = append(e.b, p...)
}

// levels writes a serving-level trace: its nil flag and length, then the
// levels at 2 bits each, four per byte, low bits first, with the unused
// bits of the last byte zero.
func (e *enc) levels(t []byte) error {
	e.sliceHdr(len(t), t == nil)
	for i := 0; i < len(t); i += 4 {
		var b byte
		for j, v := range t[i:min(i+4, len(t))] {
			if v > 3 {
				return fmt.Errorf("core: result codec: level %d at index %d has no 2-bit form", v, i+j)
			}
			b |= v << (2 * j)
		}
		e.b = append(e.b, b)
	}
	return nil
}

func (e *enc) breakdown(b *stats.ErrorBreakdown) {
	e.i(b.Total)
	e.i(b.Errors)
	e.i(b.ZeroToOne)
	e.i(b.OneToZero)
}

// dec is the matching bounds-checked decoder. After the first error every
// read returns zero values; the caller checks err once at the end.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("core: result codec: "+format, args...)
	}
}

func (d *dec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.b) {
		d.fail("truncated at offset %d", d.off)
		return 0
	}
	p := d.b[d.off:]
	d.off += 8
	return uint64(p[0]) | uint64(p[1])<<8 | uint64(p[2])<<16 | uint64(p[3])<<24 |
		uint64(p[4])<<32 | uint64(p[5])<<40 | uint64(p[6])<<48 | uint64(p[7])<<56
}
func (d *dec) i() int       { return int(int64(d.u64())) }
func (d *dec) i64() int64   { return int64(d.u64()) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }
func (d *dec) bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.b) {
		d.fail("truncated at offset %d", d.off)
		return false
	}
	v := d.b[d.off]
	d.off++
	if v > 1 {
		d.fail("bad bool %d at offset %d", v, d.off-1)
	}
	return v == 1
}

// sliceHdr reads a slice header and sanity-bounds the element count against
// the remaining bytes (elemSize is a per-element floor), so a corrupt length
// cannot drive a huge allocation.
func (d *dec) sliceHdr(elemSize int) (n int, isNil bool) {
	isNil = d.bool()
	n = d.i()
	if d.err != nil {
		return 0, true
	}
	if n < 0 || (isNil && n != 0) || (elemSize > 0 && n > (len(d.b)-d.off)/elemSize+1) {
		d.fail("implausible slice length %d at offset %d", n, d.off)
		return 0, true
	}
	return n, isNil
}

// packed returns the ceil(n/perByte) input bytes holding n packed
// elements. The slice aliases the input: a decoded Result must copy what it
// keeps, since the input may be the store's shared memory-tier copy.
func (d *dec) packed(n, perByte int) []byte {
	nb := n / perByte
	if n%perByte != 0 {
		nb++
	}
	if nb > len(d.b)-d.off {
		d.fail("%d packed elements run past the input at offset %d", n, d.off)
		return nil
	}
	p := d.b[d.off : d.off+nb]
	d.off += nb
	return p
}

// packedBits reads what enc.packedBits wrote. Nonzero padding bits are
// rejected, so every vector has exactly one valid encoding.
func (d *dec) packedBits() payload.Bits {
	n, isNil := d.sliceHdr(0)
	if isNil || d.err != nil {
		return payload.Bits{}
	}
	p := d.packed(n, 8)
	if d.err != nil {
		return payload.Bits{}
	}
	x, err := payload.FromPacked(n, append([]byte{}, p...))
	if err != nil {
		d.fail("%v at offset %d", err, d.off)
	}
	return x
}

// levels reads what enc.levels wrote, rejecting nonzero padding bits.
func (d *dec) levels() []byte {
	n, isNil := d.sliceHdr(0)
	if isNil || d.err != nil {
		return nil
	}
	p := d.packed(n, 4)
	if d.err != nil {
		return nil
	}
	if r := n % 4; r != 0 && p[len(p)-1]>>(2*r) != 0 {
		d.fail("nonzero level padding at offset %d", d.off-1)
		return nil
	}
	t := make([]byte, n)
	for i := range t {
		t[i] = p[i>>2] >> (2 * (i & 3)) & 3
	}
	return t
}

func (d *dec) breakdown(b *stats.ErrorBreakdown) {
	b.Total = d.i()
	b.Errors = d.i()
	b.ZeroToOne = d.i()
	b.OneToZero = d.i()
}
