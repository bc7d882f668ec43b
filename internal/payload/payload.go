// Package payload converts between byte payloads and the bit vectors the
// covert channel transmits (one cache line per bit), generates test
// payloads, and applies the PRNG channel modulation of Section 3.2.
//
// Bit vectors use one byte per bit with values 0 or 1: the simulator
// inspects and compares individual bits constantly, and the flat encoding
// keeps that cheap and obvious. Bits is the packed form, 8 bits per byte,
// for vectors that are kept rather than worked on (a run's decoded
// payload, cached and stored with its Result).
package payload

import "streamline/internal/rng"

// FromBytes unpacks data into a bit vector, LSB-first per byte.
func FromBytes(data []byte) []byte {
	bits := make([]byte, 0, len(data)*8)
	for _, b := range data {
		for i := 0; i < 8; i++ {
			bits = append(bits, b>>i&1)
		}
	}
	return bits
}

// ToBytes packs a bit vector (LSB-first) back into bytes. Trailing bits
// that do not fill a byte are dropped.
func ToBytes(bits []byte) []byte {
	out := make([]byte, 0, len(bits)/8)
	for i := 0; i+8 <= len(bits); i += 8 {
		var b byte
		for j := 0; j < 8; j++ {
			b |= (bits[i+j] & 1) << j
		}
		out = append(out, b)
	}
	return out
}

// Random returns n pseudo-random bits from the given seed: the low bit of
// each successive generator output.
func Random(seed uint64, n int) []byte {
	bits := make([]byte, n)
	rng.New(seed).FillLowBits(bits)
	return bits
}

// Biased returns n bits that are 1 with probability p — the "many 0s" /
// "many 1s" payloads whose rate pathologies Figure 4 illustrates.
func Biased(seed uint64, n int, p float64) []byte {
	x := rng.New(seed)
	bits := make([]byte, n)
	for i := range bits {
		if x.Float64() < p {
			bits[i] = 1
		}
	}
	return bits
}

// Modulate XORs payload bits with the keystream derived from seed,
// producing the transmitted bits TB-i = PB-i ^ PRNG-i. Demodulating with
// the same seed recovers the payload.
func Modulate(payloadBits []byte, seed uint64) []byte {
	out := make([]byte, len(payloadBits))
	rng.NewKeystream(seed).XorBits(out, payloadBits)
	return out
}

// Demodulate recovers payload bits from transmitted bits; it is the same
// XOR and exists for call-site clarity.
func Demodulate(txBits []byte, seed uint64) []byte {
	return Modulate(txBits, seed)
}
