package core

import (
	"bytes"
	"testing"

	"streamline/internal/hier"
	"streamline/internal/payload"
)

// FuzzDecodeResult pins the Result codec's contracts on arbitrary input:
// decodeResult never panics, and a payload it accepts re-encodes to the
// same bytes, so a stored entry has exactly one valid form. The seeds are
// valid encodings of a full, a zero and an empty-slices Result, and every
// corruptResults variant.
func FuzzDecodeResult(f *testing.F) {
	f.Add(encoded(fullResult()))
	f.Add(encoded(&Result{}))
	f.Add(encoded(&Result{GapSamples: []GapSample{}, Decoded: payload.Pack([]byte{}), Counters: []hier.CounterWindow{{}}}))
	for _, raw := range corruptResults() {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		r, err := decodeResult(raw)
		if err != nil {
			return
		}
		again, err := encodeResult(r)
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		if !bytes.Equal(again, raw) {
			t.Fatalf("accepted payload does not re-encode to its own bytes\n got %x\nwant %x", again, raw)
		}
	})
}
