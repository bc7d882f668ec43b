// Package ecc implements the (72,64) Hamming SECDED code the paper layers
// on the channel (Section 4.3): each 8-byte packet gains one code byte
// (12.5% overhead), correcting any single-bit error and detecting double-
// bit errors in the packet.
//
// The code is the classic extended Hamming construction: 7 parity bits at
// power-of-two positions of a 71-bit codeword protect the 64 data bits, and
// a 72nd overall-parity bit upgrades single-error correction to double-
// error detection.
//
// The channel transmits bit streams (one cache line per bit), so the
// primary API works on []byte bit vectors with values 0/1; each 72-bit
// block is one packet.
package ecc

import "fmt"

// CodewordBits is the transmitted packet size in bits.
const CodewordBits = 72

// DataBits is the payload size per packet in bits.
const DataBits = 64

// dataPositions lists the 1-based codeword positions (within 1..71) that
// carry data bits, in order: every position that is not a power of two.
var dataPositions = func() [DataBits]int {
	var pos [DataBits]int
	n := 0
	for p := 1; p <= 71 && n < DataBits; p++ {
		if p&(p-1) != 0 { // not a power of two
			pos[n] = p
			n++
		}
	}
	return pos
}()

// DecodeStatus classifies the outcome of decoding one packet.
type DecodeStatus int

// Decode outcomes.
const (
	// OK means the packet carried no detectable error.
	OK DecodeStatus = iota
	// Corrected means a single-bit error was corrected.
	Corrected
	// Detected means a double-bit error was detected (data unreliable).
	Detected
)

// EncodedLen returns the number of transmitted bits for dataBits payload
// bits after zero-padding to whole packets.
func EncodedLen(dataBits int) int {
	packets := (dataBits + DataBits - 1) / DataBits
	return packets * CodewordBits
}

// Encode expands a 0/1 bit vector into SECDED codewords, zero-padding the
// final packet. The result length is EncodedLen(len(data)).
func Encode(data []byte) []byte {
	out := make([]byte, 0, EncodedLen(len(data)))
	var block [DataBits]byte
	for start := 0; start < len(data); start += DataBits {
		n := copy(block[:], data[start:])
		for i := n; i < DataBits; i++ {
			block[i] = 0
		}
		out = appendCodeword(out, &block)
	}
	return out
}

func appendCodeword(out []byte, data *[DataBits]byte) []byte {
	var cw [CodewordBits + 1]byte // 1-based positions 1..72
	for i, p := range dataPositions {
		cw[p] = data[i] & 1
	}
	// Parity bits at power-of-two positions over 1..71.
	for pb := 1; pb <= 64; pb <<= 1 {
		var x byte
		for p := 1; p <= 71; p++ {
			if p&pb != 0 && p != pb {
				x ^= cw[p]
			}
		}
		cw[pb] = x
	}
	// Overall parity at position 72.
	var all byte
	for p := 1; p <= 71; p++ {
		all ^= cw[p]
	}
	cw[72] = all
	return append(out, cw[1:]...)
}

// Result summarizes a Decode over many packets.
type Result struct {
	Packets   int
	Corrected int // packets with a corrected single-bit error
	Detected  int // packets with a detected (uncorrectable) double error
}

// Decode consumes SECDED codewords and returns the recovered data bits
// (including any padding added by Encode; the caller trims to the original
// length) together with per-packet statistics. It returns an error if the
// input is not a whole number of packets.
func Decode(coded []byte) ([]byte, Result, error) {
	if len(coded)%CodewordBits != 0 {
		return nil, Result{}, fmt.Errorf("ecc: coded length %d is not a multiple of %d", len(coded), CodewordBits)
	}
	packets := len(coded) / CodewordBits
	out := make([]byte, 0, packets*DataBits)
	res := Result{Packets: packets}
	var cw [CodewordBits + 1]byte
	for pk := 0; pk < packets; pk++ {
		copy(cw[1:], coded[pk*CodewordBits:(pk+1)*CodewordBits])
		syndrome := 0
		for pb := 1; pb <= 64; pb <<= 1 {
			var x byte
			for p := 1; p <= 71; p++ {
				if p&pb != 0 {
					x ^= cw[p] & 1
				}
			}
			if x != 0 {
				syndrome |= pb
			}
		}
		var overall byte
		for p := 1; p <= 72; p++ {
			overall ^= cw[p] & 1
		}
		switch {
		case syndrome == 0 && overall == 0:
			// Clean.
		case overall != 0:
			// Odd number of flips: assume single-bit error. A syndrome
			// of 0 means the overall-parity bit itself flipped.
			if syndrome >= 1 && syndrome <= 71 {
				cw[syndrome] ^= 1
			}
			res.Corrected++
		default:
			// Even number of flips with nonzero syndrome: double error.
			res.Detected++
		}
		for _, p := range dataPositions {
			out = append(out, cw[p]&1)
		}
	}
	return out, res, nil
}
