package resultstore

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"testing"
)

// TestMemTierServes pins the tier ordering: the first Get after a cold
// reopen is a disk read that makes the entry resident; subsequent Gets are
// memory hits returning the identical backing slice (zero-copy).
func TestMemTierServes(t *testing.T) {
	dir := t.TempDir()
	key := KeyOf([]byte("tiered"))
	payload := bytes.Repeat([]byte("p"), 512)
	if err := openT(t, dir, Options{}).Put(key, payload); err != nil {
		t.Fatal(err)
	}

	s := openT(t, dir, Options{})
	first, ok := s.Get(key)
	if !ok || !bytes.Equal(first, payload) {
		t.Fatalf("cold Get = %d bytes, %v", len(first), ok)
	}
	st := s.Stats()
	if st.MemHits != 0 || st.MemMisses != 1 || st.MemEntries != 1 {
		t.Fatalf("after cold Get: %+v, want 0 mem hits, 1 mem miss, 1 resident", st)
	}
	second, ok := s.Get(key)
	if !ok {
		t.Fatal("warm Get missed")
	}
	if &second[0] != &first[0] {
		t.Error("warm Get copied the payload; the memory tier must serve zero-copy")
	}
	st = s.Stats()
	if st.MemHits != 1 || st.MemBytes != int64(len(payload)) {
		t.Fatalf("after warm Get: %+v, want 1 mem hit, %d resident bytes", st, len(payload))
	}
}

// TestMemTierOffMatchesOn is the unit-level memory-tier axis (the golden
// suite pins the experiment-level one): every payload served with the tier
// on is byte-identical to the tier-off disk read.
func TestMemTierOffMatchesOn(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, Options{})
	keys := make([]Key, 16)
	for i := range keys {
		p := bytes.Repeat([]byte{byte(i + 1)}, 64+i*17)
		keys[i] = KeyOf(p)
		if err := w.Put(keys[i], p); err != nil {
			t.Fatal(err)
		}
	}
	on := openT(t, dir, Options{})
	off := openT(t, dir, Options{MemBytes: -1})
	for pass := 0; pass < 2; pass++ { // second pass serves `on` from memory
		for i, k := range keys {
			a, okA := on.Get(k)
			b, okB := off.Get(k)
			if !okA || !okB || !bytes.Equal(a, b) {
				t.Fatalf("pass %d entry %d: tier-on (%d bytes, %v) != tier-off (%d bytes, %v)",
					pass, i, len(a), okA, len(b), okB)
			}
		}
	}
	if st := off.Stats(); st.MemHits != 0 || st.MemMisses != 0 || st.MemEntries != 0 {
		t.Fatalf("disabled tier recorded activity: %+v", st)
	}
	if st := on.Stats(); st.MemHits == 0 {
		t.Fatalf("enabled tier never hit: %+v", st)
	}
}

// TestMemTierBudgetEvicts fills the memory tier past its one budget and
// checks global LRU order across shards: the least-recently-touched
// resident entry is dropped first, whichever shard holds it, and the byte
// accounting tracks exactly.
func TestMemTierBudgetEvicts(t *testing.T) {
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 1024) }
	// Room for three 1 KB entries, on keys in four different shards.
	s := openT(t, t.TempDir(), Options{MemBytes: 3*1024 + 512})
	var keys []Key
	used := map[byte]bool{}
	for i := 0; len(keys) < 4; i++ {
		k := KeyOf([]byte(fmt.Sprintf("bucket-%d", i)))
		if !used[k[0]] {
			used[k[0]] = true
			keys = append(keys, k)
		}
	}
	for i, k := range keys[:3] {
		if err := s.Put(k, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch keys[0]: keys[1] becomes the oldest resident entry, and the
	// fourth Put must evict it from memory (the disk entry survives).
	if _, ok := s.getMem(keys[0]); !ok {
		t.Fatal("entry not resident under budget")
	}
	if err := s.Put(keys[3], payload(3)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.MemEvictions != 1 || st.MemEntries != 3 || st.MemBytes != 3*1024 {
		t.Fatalf("stats %+v, want one eviction and three resident 1 KB entries", st)
	}
	for i, k := range keys {
		if _, ok := s.getMem(k); ok == (i == 1) {
			t.Errorf("entry %d: resident %v, want only entry 1 evicted", i, ok)
		}
	}
	if p, ok := s.Get(keys[1]); !ok || !bytes.Equal(p, payload(1)) {
		t.Error("memory-evicted entry lost from the disk tier")
	}
	var wantResident int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, e := range sh.mem {
			wantResident += int64(len(e.payload))
		}
		sh.mu.Unlock()
	}
	if got := s.Stats().MemBytes; got != wantResident || got > 3*1024+512 {
		t.Errorf("MemBytes %d, summed resident %d, budget %d", got, wantResident, 3*1024+512)
	}
}

// TestMemTierAdmitsWholeBudget pins admission against the one budget: an
// entry far above 1/256th of it stays resident and evicts older entries
// from other shards, while an entry above the whole budget is refused
// without disturbing anything.
func TestMemTierAdmitsWholeBudget(t *testing.T) {
	const budget = 64 << 10
	for _, dir := range []string{t.TempDir(), ""} {
		s := openT(t, dir, Options{MemBytes: budget})
		small := make([]Key, 8)
		for i := range small {
			small[i] = KeyOf([]byte(fmt.Sprintf("small-%d", i)))
			if err := s.Put(small[i], bytes.Repeat([]byte{byte(i)}, 4096)); err != nil {
				t.Fatal(err)
			}
		}
		big := KeyOf([]byte("big"))
		if err := s.Put(big, bytes.Repeat([]byte{0xb}, 48<<10)); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.getMem(big); !ok {
			t.Errorf("dir %q: a 48 KiB entry was not admitted to a 64 KiB tier", dir)
		}
		st := s.Stats()
		if st.MemBytes > budget || st.MemEvictions != 4 {
			t.Errorf("dir %q: stats %+v, want 4 of 8 small entries evicted within %d bytes", dir, st, budget)
		}
		for i, k := range small {
			if _, ok := s.getMem(k); ok != (i >= 4) {
				t.Errorf("dir %q: small entry %d resident %v, want the 4 oldest evicted", dir, i, ok)
			}
		}
		huge := KeyOf([]byte("huge"))
		if err := s.Put(huge, make([]byte, budget+1)); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.getMem(huge); ok {
			t.Errorf("dir %q: an entry above the whole budget was admitted", dir)
		}
		if got := s.Stats(); got.MemEntries != st.MemEntries || got.MemEvictions != st.MemEvictions {
			t.Errorf("dir %q: refused entry changed the tier: %+v -> %+v", dir, st, got)
		}
	}
}

// TestMemGetZeroAllocs is the dynamic twin of the //detlint:hotpath
// annotation on getMem: a warm-tier hit allocates nothing.
func TestMemGetZeroAllocs(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	key := KeyOf([]byte("hot"))
	if err := s.Put(key, bytes.Repeat([]byte("h"), 4096)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.getMem(key); !ok {
		t.Fatal("entry not resident after Put")
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := s.getMem(key); !ok {
			t.Fatal("resident entry missed")
		}
	}); allocs != 0 {
		t.Errorf("memory-tier Get allocates %.1f times per op, want 0", allocs)
	}
}

// TestConcurrentTiers hammers Get/Put/evict on both tiers at once with
// budgets tight enough to force continuous eviction — the race-detector
// workload for the sharded store (CI runs this package under -race).
func TestConcurrentTiers(t *testing.T) {
	s := openT(t, t.TempDir(), Options{
		MaxBytes: 16 << 10, // force disk eviction: the 64 entries take about 36 KiB
		MemBytes: numShards * 2048,
	})
	const (
		workers = 8
		keysN   = 64
		rounds  = 200
	)
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 128+i*13) }
	keys := make([]Key, keysN)
	for i := range keys {
		keys[i] = KeyOf(payload(i))
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w*31 + r*7) % keysN
				if (w+r)%3 == 0 {
					if err := s.Put(keys[i], payload(i)); err != nil {
						errs <- err
						return
					}
				} else if p, ok := s.Get(keys[i]); ok && !bytes.Equal(p, payload(i)) {
					errs <- fmt.Errorf("key %d served wrong bytes", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Counters must reconcile exactly (the satellite's "Stats stays exact
	// under concurrency"): every Get is a hit or a miss, and every hit is
	// a memory hit or a disk read that followed a memory miss.
	st := s.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("no Get activity recorded")
	}
	if st.MemHits+st.MemMisses != st.Hits+st.Misses {
		t.Errorf("tier counters diverge: %d mem outcomes vs %d Get outcomes", st.MemHits+st.MemMisses, st.Hits+st.Misses)
	}
	if st.MemHits > st.Hits {
		t.Errorf("MemHits %d exceeds Hits %d", st.MemHits, st.Hits)
	}
	if st.Evictions == 0 {
		t.Error("the disk budget never evicted")
	}
	// Concurrent appends land whole and in shard-lock order, so the
	// journal replays to exactly the index the writing handle holds.
	if r := openT(t, s.Dir(), Options{}).Stats(); r.Entries != st.Entries || r.Bytes != st.Bytes {
		t.Errorf("journal replays to %d entries, %d bytes; the writer holds %d, %d", r.Entries, r.Bytes, st.Entries, st.Bytes)
	}
}

// TestMemOnlyStore pins the store with no directory: Open touches no
// filesystem path, Put makes the caller's buffer resident and writes
// nothing, Get serves it back, and Stats reports an empty disk tier.
func TestMemOnlyStore(t *testing.T) {
	// An entry path is relative to the working directory when dir is
	// empty, so any file written would land among the package sources.
	before, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	s := openT(t, "", Options{})
	if s.Dir() != "" {
		t.Errorf("Dir() = %q, want empty", s.Dir())
	}
	keys := make([]Key, 8)
	for i := range keys {
		p := bytes.Repeat([]byte{byte(i + 1)}, 100+i)
		keys[i] = KeyOf(p)
		if err := s.Put(keys[i], p); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get(keys[i])
		if !ok || !bytes.Equal(got, p) {
			t.Fatalf("entry %d: Get = %d bytes, %v", i, len(got), ok)
		}
		if &got[0] != &p[0] {
			t.Errorf("entry %d: Get copied the payload; a memory-only store keeps the Put buffer", i)
		}
	}
	if _, ok := s.Get(KeyOf([]byte("absent"))); ok {
		t.Error("Get of an absent key hit")
	}
	st := s.Stats()
	if st.Entries != 0 || st.Bytes != 0 || st.MemEntries != len(keys) || st.Writes != uint64(len(keys)) {
		t.Errorf("stats %+v, want 0 disk entries and %d resident writes", st, len(keys))
	}
	if st.Hits != uint64(len(keys)) || st.MemHits != st.Hits || st.Misses != 1 {
		t.Errorf("stats %+v, want %d memory hits and 1 miss", st, len(keys))
	}
	after, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Errorf("memory-only store changed the working directory: %d entries -> %d", len(before), len(after))
	}
}

// TestMemOnlyStoreEvicts fills a memory-only store far past its budget:
// the resident bytes stay within it, the oldest entries go, and the
// newest stay servable.
func TestMemOnlyStoreEvicts(t *testing.T) {
	const budget = numShards * 4096
	s := openT(t, "", Options{MemBytes: budget})
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 1024) }
	keys := make([]Key, 4*budget/1024)
	for i := range keys {
		keys[i] = KeyOf([]byte(fmt.Sprintf("mem-only-%d", i)))
		if err := s.Put(keys[i], payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.MemBytes > budget || st.MemEvictions == 0 {
		t.Errorf("stats %+v: want resident bytes within %d and some evictions", st, budget)
	}
	if st.MemEntries+int(st.MemEvictions) != len(keys) {
		t.Errorf("%d resident + %d evicted != %d put", st.MemEntries, st.MemEvictions, len(keys))
	}
	last := len(keys) - 1
	if p, ok := s.Get(keys[last]); !ok || !bytes.Equal(p, payload(last)) {
		t.Error("most recent Put is not resident")
	}
	if _, ok := s.Get(keys[0]); ok {
		t.Error("first Put survived four budgets of later Puts")
	}
}

// TestMemOnlyStoreNeedsMemTier rejects a memory-only store with the
// memory tier disabled: it could hold nothing.
func TestMemOnlyStoreNeedsMemTier(t *testing.T) {
	if _, err := Open("", Options{MemBytes: -1}); err == nil {
		t.Error("Open(\"\", MemBytes: -1) succeeded")
	}
}

// TestDefaultMemTierAdmitsLargeResult checks the default budget: a 1.25 MB
// payload, the packed decode of a 10M-bit run, stays resident on a store
// with and without a directory.
func TestDefaultMemTierAdmitsLargeResult(t *testing.T) {
	p := bytes.Repeat([]byte{0xa5}, 1_250_000)
	key := KeyOf(p)
	for _, dir := range []string{t.TempDir(), ""} {
		s := openT(t, dir, Options{})
		if err := s.Put(key, p); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.getMem(key); !ok {
			t.Errorf("dir %q: a %d-byte payload was not admitted to the default memory tier", dir, len(p))
		}
	}
}

// TestMemOnlyStoreTrimsSlack checks that a memory-only store keeps no more
// than the bytes its budget counts: a Put buffer with spare capacity is
// made resident as an exact-size copy.
func TestMemOnlyStoreTrimsSlack(t *testing.T) {
	s := openT(t, "", Options{})
	p := append(make([]byte, 0, 4096), bytes.Repeat([]byte("s"), 1000)...)
	key := KeyOf(p)
	if err := s.Put(key, p); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, p) {
		t.Fatalf("Get = %d bytes, %v", len(got), ok)
	}
	if cap(got) != len(got) || &got[0] == &p[0] {
		t.Errorf("resident payload has cap %d for %d bytes (shared with the Put buffer: %v)", cap(got), len(got), &got[0] == &p[0])
	}
}
