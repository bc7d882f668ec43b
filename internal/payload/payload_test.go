package payload

import (
	"bytes"
	"testing"
	"testing/quick"

	"streamline/internal/rng"
)

func TestBytesRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		return bytes.Equal(ToBytes(FromBytes(data)), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromBytesLSBFirst(t *testing.T) {
	bits := FromBytes([]byte{0b00000101})
	want := []byte{1, 0, 1, 0, 0, 0, 0, 0}
	if !bytes.Equal(bits, want) {
		t.Fatalf("bits = %v, want %v", bits, want)
	}
}

func TestToBytesDropsPartial(t *testing.T) {
	if got := ToBytes([]byte{1, 1, 1}); len(got) != 0 {
		t.Fatalf("partial byte produced %v", got)
	}
}

func TestRandomBalancedAndDeterministic(t *testing.T) {
	a := Random(9, 100000)
	b := Random(9, 100000)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed gave different payloads")
	}
	ones := countOnes(a)
	if ones < 49000 || ones > 51000 {
		t.Fatalf("ones = %d, not balanced", ones)
	}
	c := Random(10, 100000)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds gave identical payloads")
	}
}

// The property the channel encoding exists for: transmitted bits are
// balanced regardless of payload bias (Section 3.2, Figure 5).
func TestModulateBalancesBiasedPayload(t *testing.T) {
	for _, bit := range []byte{0, 1} {
		constant := bytes.Repeat([]byte{bit}, 100000)
		tx := Modulate(constant, 77)
		ones := countOnes(tx)
		if ones < 49000 || ones > 51000 {
			t.Fatalf("payload of all-%ds modulated to %d ones; want ~50%%", bit, ones)
		}
	}
}

func TestModulateDemodulateRoundTrip(t *testing.T) {
	f := func(seed uint64, data []byte) bool {
		bits := FromBytes(data)
		return bytes.Equal(Demodulate(Modulate(bits, seed), seed), bits)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestModulateDifferentSeedsGarble(t *testing.T) {
	bits := Random(1, 10000)
	garbled := Demodulate(Modulate(bits, 2), 3)
	diff := 0
	for i := range bits {
		if bits[i] != garbled[i] {
			diff++
		}
	}
	if diff < 4000 {
		t.Fatalf("wrong-seed demodulation matched too well (%d diffs)", diff)
	}
}

// TestModulateMatchesPerBit pins the word-at-a-time Modulate to the per-bit
// definition TB-i = PB-i ^ PRNG-i, and Demodulate∘Modulate to the identity,
// at lengths that leave unaligned tails.
func TestModulateMatchesPerBit(t *testing.T) {
	for _, n := range []int{1, 5, 8, 13, 64, 100, 1001, 40_003} {
		bits := Random(uint64(n), n)
		tx := Modulate(bits, 0x5eed)
		k := rng.NewKeystream(0x5eed)
		for i, pb := range bits {
			if w := pb ^ k.Bit(); tx[i] != w {
				t.Fatalf("len %d: tx[%d] = %d, want %d", n, i, tx[i], w)
			}
		}
		if !bytes.Equal(Demodulate(tx, 0x5eed), bits) {
			t.Fatalf("len %d: Demodulate(Modulate(p)) != p", n)
		}
	}
}

// countOnes counts the 1-bits in a bit vector.
func countOnes(bits []byte) int {
	n := 0
	for _, b := range bits {
		n += int(b & 1)
	}
	return n
}
