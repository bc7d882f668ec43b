package payload

import (
	"encoding/binary"
	"fmt"
)

// Bits is a packed bit vector: Len bits stored 8 per byte, LSB-first (the
// FromBytes/ToBytes order), with the unused high bits of the last byte
// zero. It is the form a run's decoded payload is kept, cached and stored
// in: one eighth of the one-byte-per-bit vectors the simulator works on.
//
// The zero value is a nil vector, distinct from an empty one
// (Pack([]byte{})), so a packed vector round-trips the nil-vs-empty
// distinction of the bit vector it came from. A Bits is never modified
// after it is built; Bytes exposes its storage, which callers must treat
// as read-only.
type Bits struct {
	n      int
	packed []byte
}

// Pack packs a bit vector (one byte per bit, LSB-first) into Bits. Only each
// byte's low bit is kept, as in ToBytes.
func Pack(bits []byte) Bits {
	if bits == nil {
		return Bits{}
	}
	packed, _ := AppendPacked(make([]byte, 0, (len(bits)+7)/8), bits)
	return Bits{n: len(bits), packed: packed}
}

// FromPacked adopts packed as the storage of an n-bit vector: it must hold
// exactly ceil(n/8) bytes with zero padding bits, so every vector has one
// packed form. A nil packed gives the nil vector.
func FromPacked(n int, packed []byte) (Bits, error) {
	if pad := 8*len(packed) - n; n < 0 || pad < 0 || pad >= 8 {
		return Bits{}, fmt.Errorf("payload: %d packed bytes for %d bits", len(packed), n)
	}
	if packed == nil {
		return Bits{}, nil
	}
	if r := n % 8; r != 0 && packed[len(packed)-1]>>r != 0 {
		return Bits{}, fmt.Errorf("payload: nonzero padding bits in %d-bit vector", n)
	}
	return Bits{n: n, packed: packed}, nil
}

// AppendPacked appends bits packed 8 per byte, LSB-first, to dst; a tail
// that does not fill a byte is zero-padded. ok reports whether every input
// byte was 0 or 1: only each byte's low bit is packed.
func AppendPacked(dst, bits []byte) (out []byte, ok bool) {
	// Eight bytes per step: the multiplier gathers each byte's low bit into
	// the product's top byte (bit k of the result is byte k's low bit; the
	// contributions land on distinct bit positions, so no carries). bad
	// accumulates any bit outside the low bit of each byte.
	var bad uint64
	const low = 0x0101010101010101
	i := 0
	for ; i+8 <= len(bits); i += 8 {
		w := binary.LittleEndian.Uint64(bits[i:])
		bad |= w &^ low
		dst = append(dst, byte(((w&low)*0x0102040810204080)>>56))
	}
	if i < len(bits) {
		var tail byte
		for j := 0; i+j < len(bits); j++ {
			b := bits[i+j]
			bad |= uint64(b &^ 1)
			tail |= (b & 1) << j
		}
		dst = append(dst, tail)
	}
	return dst, bad == 0
}

// Len returns the number of bits.
func (x Bits) Len() int { return x.n }

// At returns bit i (0 or 1). It panics if i is out of range.
func (x Bits) At(i int) byte {
	if i < 0 || i >= x.n {
		panic(fmt.Sprintf("payload: bit index %d out of range [0,%d)", i, x.n))
	}
	return x.packed[i>>3] >> (i & 7) & 1
}

// Bytes returns the packed storage, ceil(Len/8) bytes; it equals
// ToBytes(x.Unpack()) when Len is a multiple of 8. It is nil only for the
// nil vector. The slice is shared, not copied.
func (x Bits) Bytes() []byte { return x.packed }

// Unpack returns the vector as one byte per bit; nil for the nil vector.
func (x Bits) Unpack() []byte {
	if x.packed == nil {
		return nil
	}
	bits := make([]byte, x.n)
	for i := range bits {
		bits[i] = x.packed[i>>3] >> (i & 7) & 1
	}
	return bits
}

// Clone returns a copy that shares no storage with x.
func (x Bits) Clone() Bits {
	if x.packed == nil {
		return Bits{}
	}
	return Bits{n: x.n, packed: append(make([]byte, 0, len(x.packed)), x.packed...)}
}
