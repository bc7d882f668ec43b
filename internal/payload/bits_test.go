package payload

import (
	"bytes"
	"reflect"
	"testing"
)

// TestBitsProperties pins the packed form at every length from 0 to 1025
// (every tail width, several times over): Pack, Unpack and At agree with
// the one-byte-per-bit vector, Bytes is ToBytes whenever the length is a
// multiple of 8, padding bits are zero, and FromPacked accepts exactly
// the bytes Pack produced.
func TestBitsProperties(t *testing.T) {
	for n := 0; n <= 1025; n++ {
		bits := Random(uint64(n)+1, n)
		x := Pack(bits)
		if x.Len() != n {
			t.Fatalf("len %d: Len() = %d", n, x.Len())
		}
		if got := x.Unpack(); !bytes.Equal(got, bits) {
			t.Fatalf("len %d: Unpack(Pack(b)) != b", n)
		}
		for i, b := range bits {
			if x.At(i) != b {
				t.Fatalf("len %d: At(%d) = %d, want %d", n, i, x.At(i), b)
			}
		}
		p := x.Bytes()
		if len(p) != (n+7)/8 {
			t.Fatalf("len %d: %d packed bytes, want %d", n, len(p), (n+7)/8)
		}
		if n%8 == 0 && !bytes.Equal(p, ToBytes(bits)) {
			t.Fatalf("len %d: Bytes() != ToBytes", n)
		}
		if r := n % 8; r != 0 && p[len(p)-1]>>r != 0 {
			t.Fatalf("len %d: nonzero padding bits in %08b", n, p[len(p)-1])
		}
		y, err := FromPacked(n, append([]byte{}, p...))
		if err != nil || !reflect.DeepEqual(y, x) {
			t.Fatalf("len %d: FromPacked(Bytes()) = %v, %v", n, y, err)
		}
		if c := x.Clone(); !reflect.DeepEqual(c, x) || (n > 0 && &c.Bytes()[0] == &p[0]) {
			t.Fatalf("len %d: Clone is unequal or shares storage", n)
		}
		if r := n % 8; r != 0 {
			bad := append([]byte{}, p...)
			bad[len(bad)-1] |= 1 << r
			if _, err := FromPacked(n, bad); err == nil {
				t.Fatalf("len %d: FromPacked accepted nonzero padding", n)
			}
		}
		if _, err := FromPacked(n+8, p); err == nil {
			t.Fatalf("len %d: FromPacked accepted %d bytes for %d bits", n, len(p), n+8)
		}
	}
}

// TestBitsNilAndEmptyDistinct: a packed vector keeps the nil-vs-empty
// distinction of the vector it came from, through every accessor.
func TestBitsNilAndEmptyDistinct(t *testing.T) {
	nilBits, empty := Pack(nil), Pack([]byte{})
	if nilBits.Bytes() != nil || nilBits.Unpack() != nil || nilBits.Clone().Bytes() != nil {
		t.Error("nil vector packs, unpacks or clones to non-nil")
	}
	if empty.Bytes() == nil || empty.Unpack() == nil || empty.Clone().Bytes() == nil {
		t.Error("empty vector packs, unpacks or clones to nil")
	}
	if reflect.DeepEqual(nilBits, empty) {
		t.Error("nil and empty vectors are DeepEqual")
	}
	if !reflect.DeepEqual(nilBits, Bits{}) {
		t.Error("Pack(nil) is not the zero Bits")
	}
	if x, err := FromPacked(0, nil); err != nil || !reflect.DeepEqual(x, nilBits) {
		t.Errorf("FromPacked(0, nil) = %v, %v; want the nil vector", x, err)
	}
	if x, err := FromPacked(0, []byte{}); err != nil || !reflect.DeepEqual(x, empty) {
		t.Errorf("FromPacked(0, []byte{}) = %v, %v; want the empty vector", x, err)
	}
}

// TestAppendPackedFlagsOutOfContract: bytes other than 0 and 1 are reported,
// and packed by their low bit only, as ToBytes does.
func TestAppendPackedFlagsOutOfContract(t *testing.T) {
	for _, n := range []int{1, 8, 9, 17} {
		bits := make([]byte, n)
		bits[n-1] = 3
		out, ok := AppendPacked(nil, bits)
		if ok {
			t.Errorf("len %d: byte 3 not flagged", n)
		}
		if got := out[len(out)-1] >> ((n - 1) % 8); got != 1 {
			t.Errorf("len %d: byte 3 packed as %d, want its low bit 1", n, got)
		}
	}
}

func TestBitsAtPanicsOutOfRange(t *testing.T) {
	x := Pack([]byte{1, 0, 1})
	for _, i := range []int{-1, 3, 8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) of a 3-bit vector did not panic", i)
				}
			}()
			x.At(i)
		}()
	}
}
