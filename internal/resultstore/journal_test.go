package resultstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// plantTemp leaves a crashed writer's temp file in dir. Only the walk
// removes such files, so it tells whether an Open walked (wasWalked).
func plantTemp(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "crashed-writer.tmp")
	if err := os.WriteFile(path, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func wasWalked(t *testing.T, planted string) bool {
	t.Helper()
	_, err := os.Stat(planted)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return err != nil
}

// readJournal parses dir's journal, failing the test if it is invalid.
func readJournal(t *testing.T, dir string) []journalRecord {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := parseJournal(raw)
	if err != nil {
		t.Fatalf("journal invalid: %v", err)
	}
	return recs
}

// copyEntries copies every key-named file under src, live or quarantined,
// to the same place under dst, and nothing else: no journal, no temp file.
func copyEntries(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if _, kerr := ParseKey(strings.TrimSuffix(d.Name(), ".corrupt")); kerr != nil {
			return nil
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Join(dst, filepath.Dir(rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// putN stores n distinct entries and returns their keys and payloads.
func putN(t *testing.T, s *Store, n int) ([]Key, [][]byte) {
	t.Helper()
	keys := make([]Key, n)
	payloads := make([][]byte, n)
	for i := range keys {
		payloads[i] = bytes.Repeat([]byte{byte(i + 1)}, 40+i*11)
		keys[i] = KeyOf(payloads[i])
		if err := s.Put(keys[i], payloads[i]); err != nil {
			t.Fatal(err)
		}
	}
	return keys, payloads
}

func entryPath(dir string, key Key) string {
	return filepath.Join(dir, key.String()[:2], key.String())
}

// TestJournalMatchesRebuild is the journal's referee. Seeded random
// sequences of Puts (replacements among them), Gets, bit flips that
// quarantine entries, and rewrites into stale v1 envelopes run on three
// interleaved handles of one directory. Two have a disk budget of about
// eight entries, one of them with a memory tier; the third reads every Get
// from disk under a looser budget, so handles often disagree about an
// entry's size. Afterwards a handle opened from the journal and one opened
// by walking a copy of the same files must agree on the footprint and
// serve the same bytes for every key, and no Get during the sequence may
// serve a payload that was never stored under its key.
func TestJournalMatchesRebuild(t *testing.T) {
	var evictions, quarantined, staleWrites uint64
	for seed := int64(1); seed <= 8; seed++ {
		e, q, d := journalReferee(t, seed)
		evictions, quarantined, staleWrites = evictions+e, quarantined+q, staleWrites+d
	}
	if evictions == 0 || quarantined == 0 || staleWrites == 0 {
		t.Errorf("sequences made %d evictions, %d quarantines and %d stale rewrites; want each path exercised",
			evictions, quarantined, staleWrites)
	}
}

func journalReferee(t *testing.T, seed int64) (evictions, quarantined, staleWrites uint64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	keys := make([]Key, 24)
	for i := range keys {
		keys[i] = KeyOf([]byte(fmt.Sprintf("referee-%d", i)))
	}
	stored := map[Key]map[string]bool{}
	budget := int64(8 * (envHdrLen + 100))
	handles := []*Store{
		openT(t, dir, Options{MaxBytes: budget}),
		openT(t, dir, Options{MaxBytes: budget, MemBytes: -1}),
		openT(t, dir, Options{MaxBytes: 4 * budget, MemBytes: -1}),
	}
	for step := 0; step < 400; step++ {
		s := handles[rng.Intn(len(handles))]
		i := rng.Intn(len(keys))
		k := keys[i]
		switch op := rng.Intn(10); {
		case op < 4:
			p := bytes.Repeat([]byte{byte(i), byte(step)}, 20+rng.Intn(60))
			if stored[k] == nil {
				stored[k] = map[string]bool{}
			}
			stored[k][string(p)] = true
			if err := s.Put(k, p); err != nil {
				t.Fatal(err)
			}
		case op < 8:
			if got, ok := s.Get(k); ok && !stored[k][string(got)] {
				t.Fatalf("seed %d step %d: key %d served %d bytes never stored under it", seed, step, i, len(got))
			}
		default:
			raw, err := os.ReadFile(entryPath(dir, k))
			if err != nil || len(raw) <= envHdrLen {
				continue
			}
			if op == 8 {
				raw[envHdrLen+rng.Intn(len(raw)-envHdrLen)] ^= 1 << rng.Intn(8)
			} else if binary.LittleEndian.Uint32(raw[4:]) == envVersion {
				raw = v1Envelope(k, raw[envHdrLen:])
				staleWrites++
			}
			if err := os.WriteFile(entryPath(dir, k), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, s := range handles {
		st := s.Stats()
		evictions += st.Evictions
		quarantined += st.Quarantined
	}

	rebuilt := t.TempDir()
	copyEntries(t, dir, rebuilt)
	planted := plantTemp(t, dir)
	fromJournal := openT(t, dir, Options{MaxBytes: -1, MemBytes: -1})
	fromWalk := openT(t, rebuilt, Options{MaxBytes: -1, MemBytes: -1})
	if wasWalked(t, planted) {
		t.Fatalf("seed %d: the journal handle walked the directory; its journal was not replayed", seed)
	}
	j, w := fromJournal.Stats(), fromWalk.Stats()
	if j.Entries != w.Entries || j.Bytes != w.Bytes || j.CorruptEntries != w.CorruptEntries || j.CorruptBytes != w.CorruptBytes {
		t.Fatalf("seed %d: journal index %d entries %d bytes, %d quarantined %d bytes; walk %d entries %d bytes, %d quarantined %d bytes",
			seed, j.Entries, j.Bytes, j.CorruptEntries, j.CorruptBytes, w.Entries, w.Bytes, w.CorruptEntries, w.CorruptBytes)
	}
	for i, k := range keys {
		a, okA := fromJournal.Get(k)
		b, okB := fromWalk.Get(k)
		if okA != okB || !bytes.Equal(a, b) {
			t.Fatalf("seed %d key %d: journal handle served %d bytes (%v), walk handle %d bytes (%v)",
				seed, i, len(a), okA, len(b), okB)
		}
		if okA && !stored[k][string(a)] {
			t.Fatalf("seed %d key %d: served bytes never stored under it", seed, i)
		}
	}
	return evictions, quarantined, staleWrites
}

// A torn or garbled last record makes the whole journal untrusted: Open
// walks the directory instead, serves every entry, and writes a valid
// journal in place of the damaged one.
func TestJournalDamageRebuilds(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func([]byte) []byte
	}{
		{"torn", func(j []byte) []byte { return append(j, appendRecord(nil, journalRecord{op: opPut, size: 1})[:13]...) }},
		{"garbled", func(j []byte) []byte { j[len(j)-recLen+5] ^= 0x10; return j }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			keys, payloads := putN(t, openT(t, dir, Options{}), 5)
			jpath := filepath.Join(dir, journalName)
			raw, err := os.ReadFile(jpath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(jpath, tc.damage(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			planted := plantTemp(t, dir)
			s := openT(t, dir, Options{})
			if !wasWalked(t, planted) {
				t.Fatal("a damaged journal was replayed")
			}
			if st := s.Stats(); st.Entries != len(keys) {
				t.Fatalf("Stats = %+v, want %d entries", st, len(keys))
			}
			for i, k := range keys {
				if got, ok := s.Get(k); !ok || !bytes.Equal(got, payloads[i]) {
					t.Fatalf("entry %d not served after the rebuild", i)
				}
			}
			if recs := readJournal(t, dir); len(recs) != len(keys) {
				t.Fatalf("rebuilt journal has %d records, want %d", len(recs), len(keys))
			}
		})
	}
}

// A missing journal — every store written before the journal existed — is
// rebuilt from the directory, and the next Open replays it.
func TestJournalMissingRebuilt(t *testing.T) {
	dir := t.TempDir()
	keys, payloads := putN(t, openT(t, dir, Options{}), 3)
	if err := os.Remove(filepath.Join(dir, journalName)); err != nil {
		t.Fatal(err)
	}
	s := openT(t, dir, Options{})
	want := s.Stats()
	if want.Entries != len(keys) {
		t.Fatalf("Stats = %+v, want %d entries", want, len(keys))
	}
	for i, k := range keys {
		if got, ok := s.Get(k); !ok || !bytes.Equal(got, payloads[i]) {
			t.Fatalf("entry %d not served after the rebuild", i)
		}
	}
	planted := plantTemp(t, dir)
	again := openT(t, dir, Options{})
	if wasWalked(t, planted) {
		t.Fatal("the rebuilt journal was not replayed")
	}
	if st := again.Stats(); st.Entries != want.Entries || st.Bytes != want.Bytes {
		t.Fatalf("replayed Stats = %+v, rebuild said %d entries %d bytes", st, want.Entries, want.Bytes)
	}
}

// A record whose file was deleted costs one miss: the Get corrects Stats
// and appends a drop record, which the next handle honours without a walk.
func TestJournalRecordWithoutFile(t *testing.T) {
	dir := t.TempDir()
	keys, _ := putN(t, openT(t, dir, Options{}), 2)
	if err := os.Remove(entryPath(dir, keys[0])); err != nil {
		t.Fatal(err)
	}
	s := openT(t, dir, Options{})
	before := s.Stats()
	if before.Entries != 2 {
		t.Fatalf("Stats = %+v, want both recorded entries", before)
	}
	if _, ok := s.Get(keys[0]); ok {
		t.Fatal("an entry whose file is gone was served")
	}
	info, err := os.Stat(entryPath(dir, keys[1]))
	if err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.Entries != 1 || after.Bytes != info.Size() || after.Misses != 1 {
		t.Fatalf("Stats = %+v, want 1 entry of %d bytes and 1 miss", after, info.Size())
	}
	if recs := readJournal(t, dir); recs[len(recs)-1] != (journalRecord{op: opDrop, key: keys[0]}) {
		t.Fatalf("last record %+v, want a drop of the missing entry", recs[len(recs)-1])
	}
	planted := plantTemp(t, dir)
	next := openT(t, dir, Options{})
	if wasWalked(t, planted) {
		t.Fatal("the journal was not replayed")
	}
	if st := next.Stats(); st.Entries != 1 || st.Bytes != info.Size() {
		t.Fatalf("next handle's Stats = %+v, want the drop honoured", st)
	}
}

// A file no record names — its writer crashed between the rename and the
// append, or another tool wrote it — is never served from the journal, and
// the next rebuild counts and serves it.
func TestJournalFileWithoutRecord(t *testing.T) {
	dir := t.TempDir()
	keys, payloads := putN(t, openT(t, dir, Options{}), 1)
	orphan := []byte("written without a record")
	ok := KeyOf(orphan)
	if err := os.MkdirAll(filepath.Dir(entryPath(dir, ok)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entryPath(dir, ok), wrap(ok, orphan), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openT(t, dir, Options{})
	if st := s.Stats(); st.Entries != 1 {
		t.Fatalf("Stats = %+v, want only the recorded entry", st)
	}
	if _, hit := s.Get(ok); hit {
		t.Fatal("an unrecorded file was served")
	}
	if got, hit := s.Get(keys[0]); !hit || !bytes.Equal(got, payloads[0]) {
		t.Fatal("the recorded entry was not served")
	}
	if err := os.Remove(filepath.Join(dir, journalName)); err != nil {
		t.Fatal(err)
	}
	rebuilt := openT(t, dir, Options{})
	if st := rebuilt.Stats(); st.Entries != 2 {
		t.Fatalf("rebuilt Stats = %+v, want the unrecorded file counted", st)
	}
	if got, hit := rebuilt.Get(ok); !hit || !bytes.Equal(got, orphan) {
		t.Fatal("the unrecorded file was not served after the rebuild")
	}
}

// TestOpenDoesNotWalk moves a whole shard directory out of the store after
// the Puts. A reopen still reports the journal's footprint — it lists no
// directory — and a Get of a moved key misses cleanly while the other
// shards serve.
func TestOpenDoesNotWalk(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, Options{})
	keys, payloads := putN(t, w, 16)
	want := w.Stats()
	moved := keys[0].String()[:2]
	if err := os.Rename(filepath.Join(dir, moved), filepath.Join(t.TempDir(), moved)); err != nil {
		t.Fatal(err)
	}
	s := openT(t, dir, Options{})
	if st := s.Stats(); st.Entries != want.Entries || st.Bytes != want.Bytes {
		t.Fatalf("reopened Stats = %+v, want the journal's %d entries and %d bytes", st, want.Entries, want.Bytes)
	}
	for i, k := range keys {
		got, ok := s.Get(k)
		if inMoved := k.String()[:2] == moved; inMoved == ok || (ok && !bytes.Equal(got, payloads[i])) {
			t.Fatalf("entry %d (moved %v): Get served %d bytes, %v", i, inMoved, len(got), ok)
		}
	}
	if st := s.Stats(); st.Quarantined != 0 || st.CorruptEntries != 0 {
		t.Fatalf("Stats = %+v: a missing file was treated as corrupt", st)
	}
}

// A journal that has grown past twice its live records plus 1024 is
// compacted: the next Open rebuilds it to one record per file.
func TestJournalCompacts(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	key := KeyOf([]byte("rewritten"))
	var last []byte
	for i := 0; i < 2*1+1024+1; i++ {
		last = []byte{byte(i), byte(i >> 8)}
		if err := s.Put(key, last); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(readJournal(t, dir)); n != 2*1+1024+1 {
		t.Fatalf("journal has %d records, want one per Put", n)
	}
	planted := plantTemp(t, dir)
	again := openT(t, dir, Options{})
	if !wasWalked(t, planted) {
		t.Fatal("an overgrown journal was replayed, not compacted")
	}
	if recs := readJournal(t, dir); len(recs) != 1 {
		t.Fatalf("compacted journal has %d records, want 1", len(recs))
	}
	if got, ok := again.Get(key); !ok || !bytes.Equal(got, last) {
		t.Fatalf("Get after compaction = %v, %v", got, ok)
	}
}

// validJournal is a journal with one record of each op.
func validJournal() []byte {
	a, b := KeyOf([]byte("a")), KeyOf([]byte("b"))
	j := appendJournalHeader(nil)
	j = appendRecord(j, journalRecord{op: opPut, key: a, size: 77})
	j = appendRecord(j, journalRecord{op: opPut, key: b, size: 91})
	j = appendRecord(j, journalRecord{op: opDrop, key: a})
	j = appendRecord(j, journalRecord{op: opQuarantine, key: a, size: 77})
	return appendRecord(j, journalRecord{op: opPurge, key: a})
}

// reseal recomputes the checksum of the journal's last record, so a defect
// planted in it is caught by its own check rather than the checksum.
func reseal(j []byte) []byte {
	rec := j[len(j)-recLen:]
	binary.LittleEndian.PutUint32(rec[28:], crc32.Checksum(rec[:28], castagnoli()))
	return j
}

// journalDefects builds, from validJournal, each way a journal can be
// wrong. TestParseJournalRejects checks parseJournal rejects every one, and
// FuzzReplayJournal starts from them.
var journalDefects = []struct {
	name   string
	mutate func([]byte) []byte
}{
	{"empty", func(j []byte) []byte { return j[:0] }},
	{"short header", func(j []byte) []byte { return j[:journalHdrLen-1] }},
	{"bad magic", func(j []byte) []byte { j[0] = 'X'; return j }},
	{"future version", func(j []byte) []byte { j[4] = journalVersion + 1; return j }},
	{"torn record", func(j []byte) []byte { return j[:len(j)-1] }},
	{"checksum mismatch", func(j []byte) []byte { j[len(j)-recLen+8] ^= 1; return j }},
	{"unknown op", func(j []byte) []byte { j[len(j)-recLen] = byte(opPurge + 1); return reseal(j) }},
	{"zero op", func(j []byte) []byte { j[len(j)-recLen] = 0; return reseal(j) }},
	{"nonzero padding", func(j []byte) []byte { j[len(j)-recLen+2] = 1; return reseal(j) }},
	{"negative size", func(j []byte) []byte { j[len(j)-5] = 0x80; j[len(j)-recLen] = byte(opPut); return reseal(j) }},
	{"sized drop", func(j []byte) []byte { j[len(j)-12] = 1; j[len(j)-recLen] = byte(opDrop); return reseal(j) }},
}

func TestParseJournalRejects(t *testing.T) {
	good := validJournal()
	for _, tc := range journalDefects {
		if _, err := parseJournal(tc.mutate(append([]byte(nil), good...))); err == nil {
			t.Errorf("%s: parseJournal accepted a bad journal", tc.name)
		}
	}
	recs, err := parseJournal(good)
	if err != nil || len(recs) != 5 {
		t.Fatalf("parseJournal(good) = %d records, %v", len(recs), err)
	}
	if recs[1] != (journalRecord{op: opPut, key: KeyOf([]byte("b")), size: 91}) {
		t.Fatalf("record 1 = %+v", recs[1])
	}
	s := openT(t, "", Options{})
	if !s.replay(good) {
		t.Fatal("replay refused a valid journal")
	}
	if st := s.Stats(); st.Entries != 1 || st.Bytes != 91 || st.CorruptEntries != 0 {
		t.Fatalf("replayed Stats = %+v, want b alone live", st)
	}
}
