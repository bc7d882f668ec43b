package resultstore

import (
	"bytes"
	"testing"
)

// FuzzUnwrap pins the envelope decoder's contracts on arbitrary input: it
// never panics, and an envelope it accepts is exactly the one wrap builds
// for the returned payload, so no two byte strings decode to one entry.
// The seeds are two valid envelopes and every envelopeDefects variant.
func FuzzUnwrap(f *testing.F) {
	key := KeyOf([]byte("fuzz entry"))
	good := wrap(key, []byte("a stored result payload"))
	f.Add(key[:], good)
	f.Add(key[:], wrap(key, nil))
	for _, tc := range envelopeDefects {
		f.Add(key[:], tc.mutate(append([]byte(nil), good...)))
	}
	f.Fuzz(func(t *testing.T, keyBytes, raw []byte) {
		var k Key
		copy(k[:], keyBytes)
		payload, err := unwrap(k, raw)
		if err != nil {
			return
		}
		if rewrapped := wrap(k, payload); !bytes.Equal(rewrapped, raw) {
			t.Fatalf("accepted envelope does not re-wrap to its own bytes\n got %x\nwant %x", rewrapped, raw)
		}
	})
}
