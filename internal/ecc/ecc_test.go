package ecc

import (
	"testing"
	"testing/quick"

	"streamline/internal/rng"
)

func randBits(x *rng.Xoshiro, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		if x.Uint64()&1 == 1 {
			b[i] = 1
		}
	}
	return b
}

func TestEncodedLen(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 0}, {1, 72}, {64, 72}, {65, 144}, {128, 144}, {640, 720},
	}
	for _, c := range cases {
		if got := EncodedLen(c.in); got != c.want {
			t.Errorf("EncodedLen(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestRoundTripClean(t *testing.T) {
	x := rng.New(1)
	for _, n := range []int{64, 128, 640, 64 * 100} {
		data := randBits(x, n)
		coded := Encode(data)
		back, res, err := Decode(coded)
		if err != nil {
			t.Fatal(err)
		}
		if res.Corrected != 0 || res.Detected != 0 {
			t.Fatalf("clean decode reported errors: %+v", res)
		}
		for i := range data {
			if back[i] != data[i] {
				t.Fatalf("n=%d: bit %d corrupted in clean round-trip", n, i)
			}
		}
	}
}

func TestPaddingRoundTrip(t *testing.T) {
	data := []byte{1, 0, 1, 1, 0}
	coded := Encode(data)
	if len(coded) != 72 {
		t.Fatalf("coded len = %d", len(coded))
	}
	back, _, err := Decode(coded)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if back[i] != data[i] {
			t.Fatal("padded round-trip corrupted data")
		}
	}
	for i := len(data); i < DataBits; i++ {
		if back[i] != 0 {
			t.Fatal("padding bits not zero")
		}
	}
}

// Every single-bit flip in the codeword must be corrected.
func TestCorrectsAllSingleBitErrors(t *testing.T) {
	x := rng.New(2)
	data := randBits(x, 64)
	coded := Encode(data)
	for flip := 0; flip < CodewordBits; flip++ {
		corrupt := make([]byte, len(coded))
		copy(corrupt, coded)
		corrupt[flip] ^= 1
		back, res, err := Decode(corrupt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Corrected != 1 || res.Detected != 0 {
			t.Fatalf("flip %d: result %+v, want 1 correction", flip, res)
		}
		for i := range data {
			if back[i] != data[i] {
				t.Fatalf("flip %d: data bit %d wrong after correction", flip, i)
			}
		}
	}
}

// Every double-bit flip must be detected (not silently mis-corrected).
func TestDetectsAllDoubleBitErrors(t *testing.T) {
	x := rng.New(3)
	data := randBits(x, 64)
	coded := Encode(data)
	for a := 0; a < CodewordBits; a++ {
		for b := a + 1; b < CodewordBits; b++ {
			corrupt := make([]byte, len(coded))
			copy(corrupt, coded)
			corrupt[a] ^= 1
			corrupt[b] ^= 1
			_, res, err := Decode(corrupt)
			if err != nil {
				t.Fatal(err)
			}
			if res.Detected != 1 {
				t.Fatalf("flips (%d,%d): result %+v, want detection", a, b, res)
			}
		}
	}
}

func TestDecodeRejectsPartialPacket(t *testing.T) {
	if _, _, err := Decode(make([]byte, 71)); err == nil {
		t.Fatal("accepted partial packet")
	}
}

// TestOverheadIs12Point5Percent pins the code's transmission overhead
// (Section 4.3: one code byte per 8-byte packet): Encode turns every 64
// data bits into 72.
func TestOverheadIs12Point5Percent(t *testing.T) {
	const data = 64 * 10
	if overhead := float64(len(Encode(make([]byte, data))))/data - 1; overhead != 0.125 {
		t.Fatalf("overhead = %v", overhead)
	}
}

// Property: random data + one random flip per packet always round-trips.
func TestQuickSingleErrorCorrection(t *testing.T) {
	f := func(seed uint64, flipPos uint16) bool {
		x := rng.New(seed)
		data := randBits(x, 64*3)
		coded := Encode(data)
		pos := int(flipPos) % len(coded)
		coded[pos] ^= 1
		back, res, err := Decode(coded)
		if err != nil || res.Corrected != 1 {
			return false
		}
		for i := range data {
			if back[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiPacketIndependence(t *testing.T) {
	x := rng.New(5)
	data := randBits(x, 64*10)
	coded := Encode(data)
	// One flip in packet 2, two flips in packet 7.
	coded[2*72+13] ^= 1
	coded[7*72+0] ^= 1
	coded[7*72+44] ^= 1
	back, res, err := Decode(coded)
	if err != nil {
		t.Fatal(err)
	}
	if res.Corrected != 1 || res.Detected != 1 {
		t.Fatalf("result %+v", res)
	}
	// All packets except 7 must be intact.
	for i := range data {
		if i/64 == 7 {
			continue
		}
		if back[i] != data[i] {
			t.Fatalf("bit %d corrupted outside the double-error packet", i)
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	x := rng.New(1)
	data := randBits(x, 64*1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(data)
	}
}

func BenchmarkDecode(b *testing.B) {
	x := rng.New(1)
	coded := Encode(randBits(x, 64*1000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(coded); err != nil {
			b.Fatal(err)
		}
	}
}
