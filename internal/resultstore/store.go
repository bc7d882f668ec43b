// Package resultstore is a persistent content-addressed store for completed
// simulation results (see DESIGN.md §9 "Result store" and §10 "Serving
// architecture"). It turns repeated runs — CI re-runs, warm `-exp all`
// passes, identical daemon jobs — into a serving problem: a result computed
// once under a content key (machine fingerprint × canonical run-options
// hash × seed × payload hash, derived by the caller) is thereafter a memory
// or disk read, not a simulation.
//
// The store is two tiers under 256 sharded locks (the key's first byte
// picks the shard, mirroring the on-disk `<dir>/ab/` fan-out). A store
// opened with no directory has only the first, so a process without a
// store directory still shares results between its runs in RAM:
//
//   - a byte-budgeted in-memory tier holding unwrapped payloads on
//     intrusive per-shard LRU lists under one global budget, served
//     zero-copy as immutable byte slices (callers must never modify a Get
//     result — every decoder in this repository copies before returning
//     caller-owned data);
//   - the on-disk tier of versioned envelopes, indexed entirely in memory
//     at Open, so a miss is a map probe under one shard lock — never a
//     stat or a failed read.
//
// Open builds that index from the directory's journal, `<dir>/index`: a
// versioned header and one fixed-size, checksummed record per change (an
// entry written or dropped, a quarantine file written or removed), each
// appended under the shard lock just after the change it describes. Open
// replays the journal and lists no directory. It walks the shard tree only
// to write a journal from scratch: when there is none (a fresh store, or
// one written before the journal existed), when any record is torn or
// invalid, or when the journal holds more than 2x as many records as the
// index it describes, plus 1024. The walk also removes stale temp files
// and indexes quarantine files nothing recorded. No record is fsynced: the
// journal is advisory. A crash between a file change and its record
// leaves a file the index does not know (never served, one re-simulation,
// counted again at the next rebuild) or a record whose file is gone (one
// miss, then a drop record). Handles of one directory, in one process or
// several, append to one journal, but each indexes only what it replayed
// at Open plus its own writes. Every served byte is verified against its
// envelope, so a journal that disagrees with the directory costs misses,
// never a wrong answer.
//
// Layout and format follow the content-addressed-repository idiom: entries
// live under a two-level sharded tree (`<dir>/ab/abcdef...`), each wrapped
// in a versioned binary envelope that echoes the key and carries a 64-bit
// checksum of the payload (CRC-32C ‖ CRC-32/IEEE). Writes go through a temp
// file and an atomic rename, so a crashed writer can never leave a
// half-written entry under a valid name. Reads verify the whole envelope.
// An envelope from another envelope version is stale, not corrupt: it is
// deleted and reported as a miss, so an upgrade never fills the store with
// quarantine files. Anything else that fails verification — truncation, a
// flipped bit, a wrong key echo — is quarantined in place (renamed to
// `.corrupt`), logged once, and reported as a miss, so corruption costs one
// re-simulation and never an incorrect result. Quarantine files count
// toward the disk budget and are the first thing eviction removes, so
// repeated corruption can never grow the directory past it.
//
// Both tiers are size-bounded and evict least-recently-used entries, where
// recency is a process-local logical clock (an atomic counter bumped per
// access), not wall time: eviction order is deterministic for a
// deterministic access sequence, and the serving path never reads the host
// clock. The index-at-Open design trades cross-process read sharing for
// lock-free miss detection: entries another process writes after Open are
// invisible to this handle, and the re-simulation they cost is always
// correct — the store is strictly a cache, never a source of truth.
//
// All maintenance is observational — the store only ever returns byte-exact
// payloads a caller previously stored, so results served from it are
// bit-identical to re-simulating by construction of the key.
package resultstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// Key addresses one stored entry: 128 bits of a SHA-256 over the caller's
// canonical content encoding. Content-derived keys make the store
// self-deduplicating: coincident runs (the same point reached from two
// experiments) share one entry regardless of which wrote first.
type Key [16]byte

// KeyOf derives the store key for a canonical content encoding: SHA-256
// truncated to 128 bits. Callers are responsible for the encoding being
// canonical — every semantically distinct input must serialize differently
// (see the key-sensitivity audit in internal/core).
func KeyOf(data []byte) Key {
	sum := sha256.Sum256(data)
	var k Key
	copy(k[:], sum[:16])
	return k
}

// String returns the key's 32-char hex form, which is also its filename.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey reverses String: a 32-char hex key name. The daemon's
// GET /results/{key} endpoint uses it to address entries over HTTP, and
// Open uses it to rebuild the index from entry filenames.
func ParseKey(s string) (Key, error) {
	var k Key
	if len(s) != 32 {
		return k, fmt.Errorf("resultstore: key %q is %d chars, want 32", s, len(s))
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return k, fmt.Errorf("resultstore: key %q: %w", s, err)
	}
	copy(k[:], b)
	return k, nil
}

// Envelope format: a fixed header followed by the payload. Version covers
// the envelope layout and checksum only; payload schema versioning is the
// caller's (internal/core puts its Result codec version in the key). v2
// replaced the FNV-1a checksum with CRC-32C ‖ CRC-32/IEEE.
const (
	envMagic   = "SLRS"
	envVersion = 2
	envHdrLen  = 4 + 4 + 16 + 8 + 8 // magic, version, key echo, payload len, checksum
)

// errStale marks an envelope written under another envelope version: an
// entry retired by an upgrade, not a damaged one. Get deletes it instead of
// quarantining it.
var errStale = errors.New("stale envelope version")

// numShards is the lock fan-out: the key's first byte picks the shard, so
// shard population is uniform by construction (keys are truncated SHA-256)
// and matches the on-disk directory fan-out one to one.
const numShards = 256

// Options configures Open.
type Options struct {
	// MaxBytes bounds the total on-disk bytes retained, live envelopes
	// and quarantine files together; Put removes quarantine files, then
	// least-recently-used entries, beyond it. 0 selects 2 GiB; negative
	// disables disk eviction (unbounded).
	MaxBytes int64
	// MemBytes bounds the in-memory tier's resident payload bytes. 0
	// selects 512 MiB. One entry may take up to the whole budget (a
	// 10^9-bit Result packs to 125 MB); eviction removes the globally
	// least-recently-used entries. Negative disables the memory tier
	// entirely (every hit reads and verifies the on-disk envelope — the
	// pre-tier behaviour the golden suite's memory axis pins as
	// bit-identical). A memory-only store (no directory) cannot disable it.
	MemBytes int64
	// Log receives one line per quarantined entry (at most one line per
	// Store lifetime unless every read corrupts); nil discards.
	Log func(format string, args ...any)
}

// Stats is a monotonic snapshot of store activity plus the current
// footprint of both tiers. Every field is maintained atomically: reading
// Stats takes no lock and never contends with the serving path.
type Stats struct {
	// Hits and Misses count Get outcomes across both tiers; a quarantined
	// read counts as a miss. Writes counts completed Puts and WriteErrors
	// failed ones (the caller's run still succeeds; only the write-back
	// is lost). Evictions counts disk entries removed by the size bound,
	// Quarantined entries renamed aside after failing verification.
	Hits, Misses, Writes, WriteErrors, Evictions, Quarantined uint64
	// MemHits counts Gets served from the in-memory tier (a subset of
	// Hits); MemMisses Gets that fell through to the disk tier (whether
	// or not the disk tier then hit); MemEvictions entries dropped by the
	// memory budget.
	MemHits, MemMisses, MemEvictions uint64
	// Entries and Bytes describe the live disk tier (envelope bytes);
	// CorruptEntries and CorruptBytes the quarantine files still on disk;
	// MemEntries and MemBytes the resident memory tier (payload bytes).
	// Bytes + CorruptBytes is what MaxBytes bounds.
	Entries        int
	Bytes          int64
	CorruptEntries int
	CorruptBytes   int64
	MemEntries     int
	MemBytes       int64
}

// diskEntry is one indexed on-disk envelope. lastUse is the logical clock
// reading at the entry's last Get or Put; eviction removes the smallest.
type diskEntry struct {
	size    int64
	lastUse uint64
}

// memEntry is one resident payload on a shard's intrusive LRU list
// (touching an entry is pointer surgery, never an allocation). lastUse is
// the logical clock reading at its last Get or Put: it orders entries of
// different shards, so eviction can pick the oldest across the store.
type memEntry struct {
	key        Key
	payload    []byte // immutable; served zero-copy
	lastUse    uint64
	prev, next *memEntry
}

// shard is 1/256th of both tiers: the disk index, the quarantine index
// (sizes of `.corrupt` files on disk) and the memory tier's map + LRU
// list for keys whose first byte matches. The LRU list is
// circular through the sentinel head: head.next is most-recently-used,
// head.prev least. Stamps are taken under the shard lock, so list order
// is lastUse order and the tail is the shard's oldest entry.
//
// The three maps stay nil until the shard's first write (reads and deletes
// of a nil map are no-ops), so opening a store costs no per-shard
// allocation.
type shard struct {
	mu      sync.Mutex
	disk    map[Key]diskEntry
	corrupt map[Key]int64
	mem     map[Key]*memEntry
	head    memEntry // sentinel
}

// lruInit links the sentinel to itself (empty list).
func (sh *shard) lruInit() {
	sh.head.prev = &sh.head
	sh.head.next = &sh.head
}

// lruUnlink removes e from the list.
//
//detlint:hotpath
func (sh *shard) lruUnlink(e *memEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

// lruPushFront inserts e as most-recently-used.
//
//detlint:hotpath
func (sh *shard) lruPushFront(e *memEntry) {
	e.next = sh.head.next
	e.prev = &sh.head
	sh.head.next.prev = e
	sh.head.next = e
}

// Store is a concurrency-safe handle on one store directory, or on a
// memory-only store when dir is empty.
type Store struct {
	dir         string // "" for a memory-only store: no disk tier
	maxBytes    int64
	memMax      int64 // memory budget; meaningful only when the tier is on
	memDisabled bool
	log         func(format string, args ...any)

	hits, misses, writes, writeErrors, evictions, quarantined atomic.Uint64
	memHits, memMisses, memEvictions                          atomic.Uint64
	loggedCorrupt                                             atomic.Bool

	// Footprints are atomics so Stats never locks; the shard locks keep
	// each update paired with its map change, so the totals stay exact.
	bytes          atomic.Int64
	entries        atomic.Int64
	corruptBytes   atomic.Int64
	corruptEntries atomic.Int64
	memBytesTotal  atomic.Int64
	memEntriesTot  atomic.Int64

	clock      atomic.Uint64 // logical recency clock for both tiers' LRU
	evictMu    sync.Mutex    // serializes disk evictions
	memEvictMu sync.Mutex    // serializes memory evictions

	shards [numShards]shard
}

// Open opens (creating if needed) the store rooted at dir and loads the
// on-disk index once, from the journal or, when it must, by walking the
// directory (see the package comment): after Open, a Get for an absent key
// is answered from the index without touching the filesystem.
// Pre-existing entries start at zero recency (ties broken by key bytes,
// deterministically); any access outranks them.
//
// An empty dir opens a memory-only store: nothing is read or written on
// disk, Put makes the payload resident (subject to the memory budget), and
// Get serves the memory tier alone. Its entries die with the process.
func Open(dir string, opt Options) (*Store, error) {
	if dir == "" && opt.MemBytes < 0 {
		return nil, fmt.Errorf("resultstore: a memory-only store needs a memory tier (MemBytes %d)", opt.MemBytes)
	}
	s := &Store{dir: dir, maxBytes: opt.MaxBytes, log: opt.Log}
	if s.maxBytes == 0 {
		s.maxBytes = 2 << 30
	}
	memBudget := opt.MemBytes
	if memBudget == 0 {
		memBudget = 512 << 20
	}
	s.memDisabled = memBudget < 0
	s.memMax = memBudget
	for i := range s.shards {
		s.shards[i].lruInit()
	}
	s.resetIndex()
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	if s.loadJournal() {
		return s, nil
	}
	if err := s.rebuildIndex(); err != nil {
		return nil, fmt.Errorf("resultstore: scanning %s: %w", dir, err)
	}
	return s, nil
}

// resetIndex empties the disk and quarantine indexes and their accounting.
func (s *Store) resetIndex() {
	for i := range s.shards {
		s.shards[i].disk = nil
		s.shards[i].corrupt = nil
	}
	s.bytes.Store(0)
	s.entries.Store(0)
	s.corruptBytes.Store(0)
	s.corruptEntries.Store(0)
}

// Dir returns the store's root directory, or "" for a memory-only store.
func (s *Store) Dir() string { return s.dir }

// path returns the sharded entry path for key.
func (s *Store) path(key Key) string {
	name := key.String()
	return filepath.Join(s.dir, name[:2], name)
}

// getMem is the serving fast path: one shard lock, one map probe, an
// intrusive LRU touch, and the resident payload returned zero-copy. It is
// annotated allocation-free — warm-tier latency is lock + map work only,
// enforced statically by the hotpathalloc analyzer and dynamically by the
// AllocsPerRun probe in memtier_test.go.
//
//detlint:hotpath
func (s *Store) getMem(key Key) ([]byte, bool) {
	sh := &s.shards[key[0]]
	sh.mu.Lock() //detlint:allow hotpathalloc -- sync.Mutex lock does not allocate
	e := sh.mem[key]
	if e == nil {
		sh.mu.Unlock() //detlint:allow hotpathalloc -- sync.Mutex unlock does not allocate
		return nil, false
	}
	e.lastUse = s.clock.Add(1) //detlint:allow hotpathalloc -- atomic add does not allocate
	// Already MRU: the stamp alone keeps list order, skip the surgery.
	if sh.head.next != e {
		sh.lruUnlink(e)
		sh.lruPushFront(e)
	}
	// Propagate recency to the disk index so disk eviction never removes
	// an entry the memory tier is actively serving.
	if de, present := sh.disk[key]; present {
		sh.disk[key] = diskEntry{size: de.size, lastUse: e.lastUse}
	}
	p := e.payload
	sh.mu.Unlock() //detlint:allow hotpathalloc -- sync.Mutex unlock does not allocate
	return p, true
}

// Get returns the payload stored under key, consulting the memory tier,
// then the in-memory disk index, then the envelope on disk. The returned
// slice is shared and immutable: callers must not modify it. A stale
// envelope version deletes the entry; any other verification failure —
// short read, bad magic, key mismatch, checksum mismatch — quarantines it.
// Both report a miss; the caller re-simulates and the next Put replaces
// the entry. A memory-only store's disk index stays empty, so a memory
// miss is a miss.
func (s *Store) Get(key Key) ([]byte, bool) {
	if !s.memDisabled {
		if p, ok := s.getMem(key); ok {
			s.memHits.Add(1)
			s.hits.Add(1)
			return p, true
		}
		s.memMisses.Add(1)
	}

	sh := &s.shards[key[0]]
	sh.mu.Lock()
	de, present := sh.disk[key]
	if !present {
		sh.mu.Unlock()
		s.misses.Add(1)
		return nil, false
	}
	path := s.path(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		// Indexed but unreadable: the file vanished out from under us (an
		// external delete, or a record whose file never outlived a crash).
		// Drop the index entry and miss.
		s.dropDiskLocked(sh, key)
		s.journal(journalRecord{op: opDrop, key: key})
		sh.mu.Unlock()
		s.misses.Add(1)
		return nil, false
	}
	payload, uerr := unwrap(key, raw)
	if errors.Is(uerr, errStale) {
		if err := os.Remove(path); err == nil || os.IsNotExist(err) {
			s.dropDiskLocked(sh, key)
			s.journal(journalRecord{op: opDrop, key: key})
		}
		sh.mu.Unlock()
		s.misses.Add(1)
		return nil, false
	}
	if uerr != nil {
		if os.Rename(path, path+".corrupt") == nil {
			// The quarantine file is the bytes just read, whatever size
			// the index recorded for the entry.
			size := int64(len(raw))
			s.dropDiskLocked(sh, key)
			s.noteCorruptLocked(sh, key, size)
			s.journal(journalRecord{op: opDrop, key: key}, journalRecord{op: opQuarantine, key: key, size: size})
		}
		sh.mu.Unlock()
		s.quarantined.Add(1)
		s.misses.Add(1)
		if s.log != nil && s.loggedCorrupt.CompareAndSwap(false, true) {
			s.log("resultstore: quarantined corrupt entry %s (%v); falling back to simulation", path, uerr)
		}
		return nil, false
	}
	sh.disk[key] = diskEntry{size: de.size, lastUse: s.clock.Add(1)}
	if !s.memDisabled {
		s.insertMemLocked(sh, key, payload)
	}
	sh.mu.Unlock()
	s.trimMem(key)
	s.hits.Add(1)
	return payload, true
}

// setDiskLocked indexes (or re-indexes) key's live envelope as de,
// keeping the disk accounting exact. Caller holds the shard lock.
func (s *Store) setDiskLocked(sh *shard, key Key, de diskEntry) {
	if old, replaced := sh.disk[key]; replaced {
		s.bytes.Add(-old.size)
	} else {
		s.entries.Add(1)
		if sh.disk == nil {
			sh.disk = make(map[Key]diskEntry)
		}
	}
	sh.disk[key] = de
	s.bytes.Add(de.size)
}

// dropDiskLocked removes key from the disk index and accounting, plus any
// resident memory entry (the mem ⊆ disk-index invariant of a store with a
// directory). Caller holds the shard lock.
func (s *Store) dropDiskLocked(sh *shard, key Key) {
	de, ok := sh.disk[key]
	if !ok {
		return
	}
	delete(sh.disk, key)
	s.bytes.Add(-de.size)
	s.entries.Add(-1)
	if e := sh.mem[key]; e != nil {
		s.dropMemLocked(sh, e)
	}
}

// dropMemLocked removes resident entry e from its shard and the memory
// accounting. Caller holds the shard lock.
func (s *Store) dropMemLocked(sh *shard, e *memEntry) {
	sh.lruUnlink(e)
	delete(sh.mem, e.key)
	s.memBytesTotal.Add(-int64(len(e.payload)))
	s.memEntriesTot.Add(-1)
}

// noteCorruptLocked records a quarantine file of size bytes for key,
// replacing the record of any earlier one (a rename onto an existing
// `.corrupt` file overwrites it). Caller holds the shard lock.
func (s *Store) noteCorruptLocked(sh *shard, key Key, size int64) {
	if old, ok := sh.corrupt[key]; ok {
		s.corruptBytes.Add(-old)
	} else {
		s.corruptEntries.Add(1)
		if sh.corrupt == nil {
			sh.corrupt = make(map[Key]int64)
		}
	}
	sh.corrupt[key] = size
	s.corruptBytes.Add(size)
}

// dropCorruptLocked forgets key's quarantine file. Caller holds the shard
// lock.
func (s *Store) dropCorruptLocked(sh *shard, key Key) {
	if size, ok := sh.corrupt[key]; ok {
		delete(sh.corrupt, key)
		s.corruptBytes.Add(-size)
		s.corruptEntries.Add(-1)
	}
}

// insertMemLocked makes payload resident under key as its shard's
// most-recently-used entry. Caller holds the shard lock and, once it has
// released it, calls trimMem to restore the budget; payload must be
// store-private (nothing else may ever write through it). A payload
// larger than the whole budget is not admitted.
func (s *Store) insertMemLocked(sh *shard, key Key, payload []byte) {
	size := int64(len(payload))
	if size > s.memMax {
		return
	}
	if old := sh.mem[key]; old != nil {
		s.dropMemLocked(sh, old)
	}
	e := &memEntry{key: key, payload: payload, lastUse: s.clock.Add(1)}
	if sh.mem == nil {
		sh.mem = make(map[Key]*memEntry)
	}
	sh.mem[key] = e
	sh.lruPushFront(e)
	s.memBytesTotal.Add(size)
	s.memEntriesTot.Add(1)
}

// trimMem evicts least-recently-used resident entries until the memory
// tier is back within its budget. Each shard's list tail is its oldest
// entry, so the store's oldest is the tail with the smallest stamp. keep,
// the entry just made resident, is never chosen (admission already
// bounds it by the budget). Evictions are serialized and never hold more
// than one shard lock, like disk eviction; only a Put or disk promotion
// that overflows the budget pays for the scan, never a memory hit.
func (s *Store) trimMem(keep Key) {
	if s.memDisabled || s.memBytesTotal.Load() <= s.memMax {
		return
	}
	s.memEvictMu.Lock()
	defer s.memEvictMu.Unlock()
	for s.memBytesTotal.Load() > s.memMax {
		victim, oldest := -1, uint64(0)
		for i := range s.shards {
			sh := &s.shards[i]
			sh.mu.Lock()
			if t := sh.head.prev; t != &sh.head && t.key != keep && (victim < 0 || t.lastUse < oldest) {
				victim, oldest = i, t.lastUse
			}
			sh.mu.Unlock()
		}
		if victim < 0 {
			return
		}
		sh := &s.shards[victim]
		sh.mu.Lock()
		// A Get that touched the tail since the scan moved it to the
		// front; then the next scan picks again.
		if t := sh.head.prev; t != &sh.head && t.lastUse == oldest {
			s.dropMemLocked(sh, t)
			s.memEvictions.Add(1)
		}
		sh.mu.Unlock()
	}
}

// Put stores payload under key, atomically replacing any existing entry
// and making it resident in the memory tier, then enforces the disk size
// bound. The payload becomes store-owned: callers must not modify it after
// Put (every call site in this repository passes a freshly encoded buffer).
// A memory-only store keeps that very buffer resident, or an exact-size
// copy of it when its capacity exceeds its length (the budget counts
// lengths, so slack capacity would be resident but uncounted).
// Storing is an optimization for later readers, so callers may ignore the
// error; every failure is counted in Stats.WriteErrors.
func (s *Store) Put(key Key, payload []byte) error {
	err := s.put(key, payload)
	if err != nil {
		s.writeErrors.Add(1)
	}
	return err
}

func (s *Store) put(key Key, payload []byte) error {
	if s.dir == "" {
		if cap(payload) > len(payload) {
			payload = append(make([]byte, 0, len(payload)), payload...)
		}
		sh := &s.shards[key[0]]
		sh.mu.Lock()
		s.insertMemLocked(sh, key, payload)
		sh.mu.Unlock()
		s.trimMem(key)
		s.writes.Add(1)
		return nil
	}
	env := wrap(key, payload)
	path := s.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), key.String()+"-*.tmp")
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	if _, err := tmp.Write(env); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: %w", err)
	}

	sh := &s.shards[key[0]]
	sh.mu.Lock()
	if err := os.Rename(tmp.Name(), path); err != nil {
		sh.mu.Unlock()
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: %w", err)
	}
	s.setDiskLocked(sh, key, diskEntry{size: int64(len(env)), lastUse: s.clock.Add(1)})
	s.journal(journalRecord{op: opPut, key: key, size: int64(len(env))})
	if !s.memDisabled {
		// env[envHdrLen:] is the same bytes as payload but owned by the
		// envelope buffer this function built, so residency never aliases
		// a caller slice.
		s.insertMemLocked(sh, key, env[envHdrLen:])
	}
	sh.mu.Unlock()
	s.trimMem(key)
	s.writes.Add(1)
	if s.maxBytes >= 0 && s.footprint() > s.maxBytes {
		s.evictDisk(key)
	}
	return nil
}

// footprint is the disk bytes MaxBytes bounds: live envelopes plus
// quarantine files.
func (s *Store) footprint() int64 { return s.bytes.Load() + s.corruptBytes.Load() }

// Stats returns the current counters and footprints. Lock-free.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:           s.hits.Load(),
		Misses:         s.misses.Load(),
		Writes:         s.writes.Load(),
		WriteErrors:    s.writeErrors.Load(),
		Evictions:      s.evictions.Load(),
		Quarantined:    s.quarantined.Load(),
		MemHits:        s.memHits.Load(),
		MemMisses:      s.memMisses.Load(),
		MemEvictions:   s.memEvictions.Load(),
		Entries:        int(s.entries.Load()),
		Bytes:          s.bytes.Load(),
		CorruptEntries: int(s.corruptEntries.Load()),
		CorruptBytes:   s.corruptBytes.Load(),
		MemEntries:     int(s.memEntriesTot.Load()),
		MemBytes:       s.memBytesTotal.Load(),
	}
}

// evictDisk brings the disk footprint within the budget: it removes
// every quarantine file first (they can never be served), then
// least-recently-used live entries. keep is the entry just written, exempt
// so a single oversized Put does not evict itself. Eviction is serialized
// (evictMu) and snapshots the index shard by shard — it never holds more
// than one shard lock at a time, so the serving path stays responsive
// while it runs.
func (s *Store) evictDisk(keep Key) {
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	if s.footprint() <= s.maxBytes {
		return // a concurrent eviction already got us under budget
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k := range sh.corrupt {
			if err := os.Remove(s.path(k) + ".corrupt"); err == nil || os.IsNotExist(err) {
				s.dropCorruptLocked(sh, k)
				s.journal(journalRecord{op: opPurge, key: k})
			}
		}
		sh.mu.Unlock()
	}
	if s.footprint() <= s.maxBytes {
		return
	}
	type victim struct {
		key     Key
		size    int64
		lastUse uint64
	}
	var victims []victim
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, de := range sh.disk {
			if k == keep {
				continue
			}
			victims = append(victims, victim{k, de.size, de.lastUse}) //detlint:allow mapiter -- sort.Slice below orders victims; the sort sits outside the shard loop's block

		}
		sh.mu.Unlock()
	}
	sort.Slice(victims, func(i, j int) bool {
		if victims[i].lastUse != victims[j].lastUse {
			return victims[i].lastUse < victims[j].lastUse
		}
		// Deterministic order for equal recency (e.g. the zero stamps of
		// entries indexed at Open).
		return string(victims[i].key[:]) < string(victims[j].key[:])
	})
	for _, v := range victims {
		if s.footprint() <= s.maxBytes {
			return
		}
		sh := &s.shards[v.key[0]]
		sh.mu.Lock()
		de, present := sh.disk[v.key]
		// Skip entries touched or rewritten since the snapshot: they are
		// no longer the LRU story the sort told.
		if present && de.lastUse == v.lastUse {
			if err := os.Remove(s.path(v.key)); err == nil || os.IsNotExist(err) {
				s.dropDiskLocked(sh, v.key)
				s.journal(journalRecord{op: opDrop, key: v.key})
				s.evictions.Add(1)
			}
		}
		sh.mu.Unlock()
	}
}

// wrap builds the envelope for payload under key.
func wrap(key Key, payload []byte) []byte {
	env := make([]byte, envHdrLen+len(payload))
	copy(env, envMagic)
	binary.LittleEndian.PutUint32(env[4:], envVersion)
	copy(env[8:], key[:])
	binary.LittleEndian.PutUint64(env[24:], uint64(len(payload)))
	binary.LittleEndian.PutUint64(env[32:], checksum(payload))
	copy(env[envHdrLen:], payload)
	return env
}

// unwrap verifies the envelope end to end and returns the payload.
func unwrap(key Key, raw []byte) ([]byte, error) {
	if len(raw) < envHdrLen {
		return nil, fmt.Errorf("short envelope: %d bytes", len(raw))
	}
	if string(raw[:4]) != envMagic {
		return nil, fmt.Errorf("bad magic %q", raw[:4])
	}
	if v := binary.LittleEndian.Uint32(raw[4:]); v != envVersion {
		return nil, fmt.Errorf("envelope version %d, want %d: %w", v, envVersion, errStale)
	}
	var echoed Key
	copy(echoed[:], raw[8:24])
	if echoed != key {
		return nil, fmt.Errorf("key echo %s under entry %s", echoed, key)
	}
	plen := binary.LittleEndian.Uint64(raw[24:])
	payload := raw[envHdrLen:]
	if uint64(len(payload)) != plen {
		return nil, fmt.Errorf("payload length %d, header says %d", len(payload), plen)
	}
	if sum := checksum(payload); sum != binary.LittleEndian.Uint64(raw[32:]) {
		return nil, fmt.Errorf("payload checksum mismatch")
	}
	return payload, nil
}

// castagnoli returns the CRC-32C table; hash/crc32 switches it to the
// SSE4.2 instruction (or the arm64 equivalent) where the CPU has one.
// Building it precomputes the hardware path's combining tables (about a
// quarter of a millisecond), so it happens on the first checksum rather
// than at start-up of every program that links the store.
var castagnoli = sync.OnceValue(func() *crc32.Table { return crc32.MakeTable(crc32.Castagnoli) })

// checksum is the envelope's 64-bit integrity check: CRC-32C of the payload
// in the high half, CRC-32/IEEE in the low. Both run hardware-accelerated
// in hash/crc32, which keeps checking every byte on every disk read cheap
// even for entries of hundreds of kilobytes.
func checksum(b []byte) uint64 {
	return uint64(crc32.Checksum(b, castagnoli()))<<32 | uint64(crc32.ChecksumIEEE(b))
}
