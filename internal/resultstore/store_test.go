package resultstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func openT(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	key := KeyOf([]byte("content-a"))
	payload := []byte("the quick brown payload")

	if _, ok := s.Get(key); ok {
		t.Fatal("Get before Put reported a hit")
	}
	if err := s.Put(key, payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := s.Get(key)
	if !ok {
		t.Fatal("Get after Put missed")
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, want %q", got, payload)
	}

	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 {
		t.Fatalf("Stats = %+v, want 1 hit, 1 miss, 1 write", st)
	}
	if st.Entries != 1 || st.Bytes != int64(envHdrLen+len(payload)) {
		t.Fatalf("footprint = %d entries, %d bytes; want 1 entry, %d bytes",
			st.Entries, st.Bytes, envHdrLen+len(payload))
	}
}

func TestKeyIsContentAddress(t *testing.T) {
	a, b := KeyOf([]byte("one")), KeyOf([]byte("two"))
	if a == b {
		t.Fatal("distinct contents share a key")
	}
	if a != KeyOf([]byte("one")) {
		t.Fatal("KeyOf is not deterministic")
	}
	if len(a.String()) != 32 {
		t.Fatalf("key hex %q not 32 chars", a)
	}
}

func TestPutReplacesExisting(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	key := KeyOf([]byte("k"))
	if err := s.Put(key, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, []byte("second, longer payload")); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || string(got) != "second, longer payload" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	st := s.Stats()
	if st.Entries != 1 {
		t.Fatalf("Entries = %d after replacing Put, want 1", st.Entries)
	}
	if want := int64(envHdrLen + len("second, longer payload")); st.Bytes != want {
		t.Fatalf("Bytes = %d, want %d", st.Bytes, want)
	}
}

// TestCorruptionQuarantined is the store half of the corruption-hardening
// satellite: a flipped payload bit must surface as a miss (so the caller
// re-simulates), move the entry aside as .corrupt, and log once.
func TestCorruptionQuarantined(t *testing.T) {
	dir := t.TempDir()
	var logged int
	// Memory tier off: the writer's own residency would otherwise —
	// correctly — keep serving the pristine bytes and never read the
	// corrupted file. This test is about the disk read path.
	s := openT(t, dir, Options{MemBytes: -1, Log: func(string, ...any) { logged++ }})
	key := KeyOf([]byte("victim"))
	if err := s.Put(key, []byte("pristine payload bytes")); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, key.String()[:2], key.String())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[envHdrLen+3] ^= 0x40 // flip one payload bit
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get(key); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("corrupt entry not quarantined: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry still live: %v", err)
	}
	st := s.Stats()
	if st.Quarantined != 1 || st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("Stats = %+v, want 1 quarantined, 1 miss, 0 hits", st)
	}
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("footprint %d entries %d bytes after quarantine, want 0/0", st.Entries, st.Bytes)
	}
	if logged != 1 {
		t.Fatalf("logged %d times, want exactly once", logged)
	}

	// A fresh Put under the same key works and serves again.
	if err := s.Put(key, []byte("resimulated")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(key); !ok || string(got) != "resimulated" {
		t.Fatalf("Get after re-Put = %q, %v", got, ok)
	}
}

// v1Envelope builds the envelope the v1 layout wrote for payload: the
// current header with version 1 and an FNV-1a checksum. It is exactly as
// long as the current envelope of the same payload.
func v1Envelope(key Key, payload []byte) []byte {
	fnv := uint64(0xcbf29ce484222325)
	for _, c := range payload {
		fnv = (fnv ^ uint64(c)) * 0x100000001b3
	}
	env := make([]byte, envHdrLen+len(payload))
	copy(env, envMagic)
	binary.LittleEndian.PutUint32(env[4:], 1)
	copy(env[8:], key[:])
	binary.LittleEndian.PutUint64(env[24:], uint64(len(payload)))
	binary.LittleEndian.PutUint64(env[32:], fnv)
	copy(env[envHdrLen:], payload)
	return env
}

// TestStaleVersionRemovedNotQuarantined pins the upgrade path: an entry
// whose envelope version differs (here a hand-built v1 envelope with its
// FNV-1a checksum, as the previous layout wrote it) is a stale miss. The
// file is deleted — not renamed to .corrupt, where it would sit outside the
// disk budget — and nothing counts as quarantined.
func TestStaleVersionRemovedNotQuarantined(t *testing.T) {
	dir := t.TempDir()
	key := KeyOf([]byte("written by the v1 layout"))
	payload := []byte("payload under the old envelope")
	env := v1Envelope(key, payload)
	path := filepath.Join(dir, key.String()[:2], key.String())
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, env, 0o644); err != nil {
		t.Fatal(err)
	}

	var logged int
	s := openT(t, dir, Options{Log: func(string, ...any) { logged++ }})
	if st := s.Stats(); st.Entries != 1 {
		t.Fatalf("Open indexed %d entries, want the stale one", st.Entries)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("stale envelope served as a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("stale entry still on disk: %v", err)
	}
	if _, err := os.Stat(path + ".corrupt"); !os.IsNotExist(err) {
		t.Fatalf("stale entry quarantined instead of removed: %v", err)
	}
	st := s.Stats()
	if st.Quarantined != 0 || st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("Stats = %+v, want 0 quarantined, 1 miss, 0 hits", st)
	}
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("footprint %d entries %d bytes after removal, want 0/0", st.Entries, st.Bytes)
	}
	if logged != 0 {
		t.Fatalf("stale removal logged %d corruption lines", logged)
	}

	// The caller's re-simulation writes a current-version entry in place.
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(key); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get after re-Put = %q, %v", got, ok)
	}
}

// envelopeDefects builds, from a valid envelope, each way a stored file can
// be wrong. TestEnvelopeVerification checks unwrap rejects every one, and
// FuzzUnwrap starts from them.
var envelopeDefects = []struct {
	name   string
	mutate func([]byte) []byte
}{
	{"short", func(e []byte) []byte { return e[:envHdrLen-1] }},
	{"truncated payload", func(e []byte) []byte { return e[:len(e)-2] }},
	{"bad magic", func(e []byte) []byte { e[0] = 'X'; return e }},
	{"future version", func(e []byte) []byte { e[4] = envVersion + 1; return e }},
	{"stale version", func(e []byte) []byte { e[4] = envVersion - 1; return e }},
	{"key echo mismatch", func(e []byte) []byte { e[8] ^= 1; return e }},
	{"length mismatch", func(e []byte) []byte { e[24]++; return e }},
	{"checksum mismatch", func(e []byte) []byte { e[envHdrLen] ^= 1; return e }},
}

func TestEnvelopeVerification(t *testing.T) {
	key := KeyOf([]byte("env"))
	good := wrap(key, []byte("payload"))

	for _, tc := range envelopeDefects {
		env := tc.mutate(append([]byte(nil), good...))
		if _, err := unwrap(key, env); err == nil {
			t.Errorf("%s: unwrap accepted a bad envelope", tc.name)
		}
	}
	if p, err := unwrap(key, good); err != nil || string(p) != "payload" {
		t.Fatalf("unwrap(good) = %q, %v", p, err)
	}
}

func TestLRUEviction(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("x"), 64)
	entrySize := int64(envHdrLen + len(payload))
	// Budget for three entries; the fourth Put must evict the oldest.
	s := openT(t, dir, Options{MaxBytes: 3 * entrySize})

	keys := make([]Key, 4)
	for i := range keys {
		// Recency is the store's logical clock, so Put order alone pins
		// the LRU order: entry 0 is the eviction victim.
		keys[i] = KeyOf([]byte(fmt.Sprintf("entry-%d", i)))
		if err := s.Put(keys[i], payload); err != nil {
			t.Fatal(err)
		}
	}

	st := s.Stats()
	if st.Evictions != 1 || st.Entries != 3 {
		t.Fatalf("Stats = %+v, want 1 eviction leaving 3 entries", st)
	}
	if _, ok := s.Get(keys[0]); ok {
		t.Fatal("oldest entry survived eviction")
	}
	for _, k := range keys[1:] {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("entry %s evicted out of LRU order", k)
		}
	}
}

func TestOversizedPutKeepsItself(t *testing.T) {
	s := openT(t, t.TempDir(), Options{MaxBytes: 16}) // smaller than any envelope
	key := KeyOf([]byte("big"))
	if err := s.Put(key, bytes.Repeat([]byte("y"), 128)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); !ok {
		t.Fatal("a single oversized Put evicted itself")
	}
}

func TestEvictionDisabled(t *testing.T) {
	s := openT(t, t.TempDir(), Options{MaxBytes: -1})
	for i := 0; i < 8; i++ {
		if err := s.Put(KeyOf([]byte{byte(i)}), bytes.Repeat([]byte("z"), 256)); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Evictions != 0 || st.Entries != 8 {
		t.Fatalf("Stats = %+v, want 8 entries and no evictions", st)
	}
}

// reopenFixture writes one entry through a store handle, then leaves what
// no handle recorded: a crashed writer's temp file, a quarantine file
// under a name that is no key, and one under a key's name. It returns the
// entry's key, its indexed bytes, the temp file and the key-named
// quarantine file's size.
func reopenFixture(t *testing.T, dir string) (key Key, want int64, stale string, corruptSize int64) {
	t.Helper()
	s := openT(t, dir, Options{})
	key = KeyOf([]byte("persist"))
	if err := s.Put(key, []byte("outlives the handle")); err != nil {
		t.Fatal(err)
	}
	want = s.Stats().Bytes

	shardDir := filepath.Join(dir, key.String()[:2])
	stale = filepath.Join(shardDir, "deadbeef-12345.tmp")
	if err := os.WriteFile(stale, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(shardDir, "feedface.corrupt"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	other := KeyOf([]byte("quarantined elsewhere")).String()
	if err := os.MkdirAll(filepath.Join(dir, other[:2]), 0o755); err != nil {
		t.Fatal(err)
	}
	junk := []byte("quarantined by another tool")
	if err := os.WriteFile(filepath.Join(dir, other[:2], other+".corrupt"), junk, 0o644); err != nil {
		t.Fatal(err)
	}
	return key, want, stale, int64(len(junk))
}

// TestReopenRescans proves the accounting survives process restarts when
// the journal is gone: a new Store over an existing directory walks it,
// sees prior entries, serves them, clears stale temp files from crashed
// writers, indexes the key-named quarantine file, and writes a journal of
// what it found.
func TestReopenRescans(t *testing.T) {
	dir := t.TempDir()
	key, want, stale, corruptSize := reopenFixture(t, dir)
	if err := os.Remove(filepath.Join(dir, journalName)); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir, Options{})
	if st := s2.Stats(); st.Entries != 1 || st.Bytes != want {
		t.Fatalf("reopened Stats = %+v, want 1 entry, %d bytes", st, want)
	}
	if st := s2.Stats(); st.CorruptEntries != 1 || st.CorruptBytes != corruptSize {
		t.Fatalf("reopened Stats = %+v, want the key-named quarantine file (%d bytes) indexed", st, corruptSize)
	}
	if got, ok := s2.Get(key); !ok || string(got) != "outlives the handle" {
		t.Fatalf("reopened Get = %q, %v", got, ok)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file not removed: %v", err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatalf("rebuild wrote no journal: %v", err)
	}
	if recs, err := parseJournal(raw); err != nil || len(recs) != 2 {
		t.Fatalf("rebuilt journal: %d records, %v; want the entry and the quarantine file", len(recs), err)
	}
}

// TestReopenReplaysJournal is TestReopenRescans with the journal in place:
// the reopen indexes the entry from the journal alone and serves it, and
// files no handle recorded stay unindexed and untouched until the next
// rebuild.
func TestReopenReplaysJournal(t *testing.T) {
	dir := t.TempDir()
	key, want, stale, _ := reopenFixture(t, dir)

	s2 := openT(t, dir, Options{})
	if st := s2.Stats(); st.Entries != 1 || st.Bytes != want || st.CorruptEntries != 0 {
		t.Fatalf("reopened Stats = %+v, want 1 entry, %d bytes and no quarantine file", st, want)
	}
	if got, ok := s2.Get(key); !ok || string(got) != "outlives the handle" {
		t.Fatalf("reopened Get = %q, %v", got, ok)
	}
	if _, err := os.Stat(stale); err != nil {
		t.Fatalf("Open touched the directory: stale temp file gone (%v)", err)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	const n = 32
	done := make(chan error, 2*n)
	for i := 0; i < n; i++ {
		i := i
		payload := bytes.Repeat([]byte{byte(i)}, 32+i)
		key := KeyOf(payload)
		go func() { done <- s.Put(key, payload) }()
		go func() {
			// Hit or miss depending on the race, but never a wrong payload.
			if got, ok := s.Get(key); ok && !bytes.Equal(got, payload) {
				done <- fmt.Errorf("key %s served %d bytes, want %d", key, len(got), len(payload))
				return
			}
			done <- nil
		}()
	}
	for i := 0; i < 2*n; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, 32+i)
		if got, ok := s.Get(KeyOf(payload)); !ok || !bytes.Equal(got, payload) {
			t.Fatalf("entry %d missing or wrong after concurrent writes", i)
		}
	}
}

// blockShardDirs puts a regular file where every shard directory of dir
// would go, so every Put fails before writing anything.
func blockShardDirs(t *testing.T, dir string) {
	t.Helper()
	for i := 0; i < numShards; i++ {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%02x", i)), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// A failed write-back is counted, leaves no entry, and a later Get misses
// cleanly instead of serving anything.
func TestPutFailureCounted(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	blockShardDirs(t, dir)
	key := KeyOf([]byte("unwritable"))
	if err := s.Put(key, []byte("payload")); err == nil {
		t.Fatal("Put into a blocked shard directory succeeded")
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("failed Put served a hit")
	}
	st := s.Stats()
	if st.WriteErrors != 1 || st.Writes != 0 || st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("Stats = %+v, want 1 write error and nothing stored", st)
	}
}

// diskBytes sums the sizes of every entry file under dir, live or
// quarantined: the files MaxBytes bounds, so not the journal.
func diskBytes(t *testing.T, dir string) (total int64) {
	t.Helper()
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if _, kerr := ParseKey(strings.TrimSuffix(d.Name(), ".corrupt")); kerr != nil {
			return nil
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return total
}

// Quarantine files count toward the disk budget and go first: however
// many entries are corrupted, the directory never outgrows MaxBytes, and
// Stats reports live and quarantined bytes apart.
func TestQuarantineBounded(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("q"), 100)
	entrySize := int64(envHdrLen + len(payload))
	budget := 4 * entrySize
	// Memory tier off so every Get reads (and verifies) the file on disk.
	s := openT(t, dir, Options{MaxBytes: budget, MemBytes: -1})

	var live []Key
	for round := 0; round < 8; round++ {
		for i := 0; i < 4; i++ {
			key := KeyOf([]byte(fmt.Sprintf("round-%d-entry-%d", round, i)))
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			if got := diskBytes(t, dir); got > budget {
				t.Fatalf("round %d: %d bytes on disk after Put, budget %d", round, got, budget)
			}
			live = append(live, key)
		}
		// Corrupt everything written this round and read it back.
		for _, key := range live {
			path := filepath.Join(dir, key.String()[:2], key.String())
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)-1] ^= 0x01
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get(key); ok {
				t.Fatal("corrupt entry served")
			}
		}
		live = live[:0]
		st := s.Stats()
		if st.Entries != 0 || st.Bytes != 0 || st.CorruptEntries != 4 || st.CorruptBytes != budget {
			t.Fatalf("round %d: Stats = %+v, want 0 live and 4 quarantined entries (%d bytes)", round, st, budget)
		}
		if got := diskBytes(t, dir); got != st.Bytes+st.CorruptBytes {
			t.Fatalf("round %d: %d bytes on disk, Stats accounts for %d", round, got, st.Bytes+st.CorruptBytes)
		}
	}
	if st := s.Stats(); st.Quarantined != 32 || st.Evictions != 0 {
		t.Fatalf("Stats = %+v, want 32 quarantined and no live evictions", st)
	}

	// A reopened handle indexes the quarantine files it finds, and the next
	// Put removes them before any live entry.
	s2 := openT(t, dir, Options{MaxBytes: budget, MemBytes: -1})
	if st := s2.Stats(); st.CorruptEntries != 4 || st.CorruptBytes != budget || st.Entries != 0 {
		t.Fatalf("reopened Stats = %+v, want the 4 quarantine files indexed", st)
	}
	key := KeyOf([]byte("after reopen"))
	if err := s2.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.CorruptEntries != 0 || st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("Stats after Put = %+v, want quarantine cleared and the new entry live", st)
	}
	if got := diskBytes(t, dir); got != entrySize {
		t.Fatalf("%d bytes on disk, want just the new entry (%d)", got, entrySize)
	}
}

// TestOpenAllocsFewTimes pins that opening a store allocates nothing per
// shard: the shard maps are made on first write, so a memory-only Open
// costs the Store itself and not 3 maps for each of the 256 shards.
func TestOpenAllocsFewTimes(t *testing.T) {
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Open("", Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 32 {
		t.Fatalf("Open(\"\") allocates %v times, want at most 32", allocs)
	}
	t.Logf("Open(\"\") allocates %v times", allocs)
}
