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

// FuzzReplayJournal pins the journal replay on arbitrary input: it never
// panics, and it either accepts a valid journal, whose records re-encode to
// exactly its bytes, or refuses it, which makes Open rebuild the index
// from the directory. The seeds are an empty and a full valid journal and
// every journalDefects variant.
func FuzzReplayJournal(f *testing.F) {
	good := validJournal()
	f.Add(appendJournalHeader(nil))
	f.Add(good)
	for _, tc := range journalDefects {
		f.Add(tc.mutate(append([]byte(nil), good...)))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := Open("", Options{})
		if err != nil {
			t.Fatal(err)
		}
		accepted := s.replay(raw)
		recs, err := parseJournal(raw)
		if err != nil {
			if accepted {
				t.Fatalf("replay accepted a journal parseJournal rejects: %v", err)
			}
			return
		}
		re := appendJournalHeader(nil)
		for _, r := range recs {
			re = appendRecord(re, r)
		}
		if !bytes.Equal(re, raw) {
			t.Fatalf("accepted journal does not re-encode to its own bytes\n got %x\nwant %x", re, raw)
		}
	})
}
