package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"runtime"
	"testing"

	"streamline/internal/payload"
	"streamline/internal/resultstore"
)

// TestPayloadRandomPinned pins payload.Random by digest. RunRandom keys a
// generated payload by (payloadGenTag, seed, n) instead of its bits, which
// is legal only while the bits behind a given (seed, n) never change: an
// edit to payload.Random or to the rng stream it draws must fail here, and
// the fix is to bump payloadGenTag together with these digests, so entries
// keyed under the old generator can never be served for the new one.
func TestPayloadRandomPinned(t *testing.T) {
	pins := []struct {
		seed   uint64
		n      int
		digest string
	}{
		{1, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
		{1, 1, "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a"},
		{0xbead, 63, "a14d8ac49c49ffcc0fcfc5894d63b7ce77cf14fc182fa27bc6892c67a90b99b8"},
		{0xbead, 64, "4518c3f7839cdbb7608fbd4fada04b17086060b6eb4c483c2bfb719698ac5349"},
		{42, 1000, "104fa1fc96b533658d9bae68b51c3e8ec0928ce2c00109ca8d71964022bbe5a0"},
		{0xbead ^ 7, 400000, "8709d362277a95e866e5732105045bb9f7cf97fbe910dfc7cdc0a7c1c497ea1b"},
	}
	for _, p := range pins {
		sum := sha256.Sum256(payload.Random(p.seed, p.n))
		if got := hex.EncodeToString(sum[:]); got != p.digest {
			t.Errorf("payload.Random(%#x, %d) digest %s, pinned %s: the generator's output changed, "+
				"so bump payloadGenTag (internal/core/store.go) and re-pin these digests",
				p.seed, p.n, got, p.digest)
		}
	}
}

// TestPayloadGenKeyAudit is the key audit for the generated payload form:
// seed, length and generator tag each move the key, and a generated
// payload's key never equals the key of the same payload given as bits.
func TestPayloadGenKeyAudit(t *testing.T) {
	cfg := keyedConfig()
	gen := func(seed uint64, n int) resultstore.Key {
		return storeKey(&cfg, &payloadSrc{gen: true, seed: seed, n: n})
	}
	base := gen(5, 1000)
	if gen(6, 1000) == base {
		t.Error("payload seed did not change the store key")
	}
	if gen(5, 1001) == base {
		t.Error("payload length did not change the store key")
	}

	// The key ends with exactly the tagged generator term, so a bumped
	// payloadGenTag moves every generated key.
	term := func(tag string, seed uint64, n int) []byte {
		e := newEnc(0)
		e.b = append(e.b, payloadFormGen)
		e.str(tag)
		e.u64(seed)
		e.i(n)
		return e.b
	}
	full := keyEnc(&cfg, &payloadSrc{gen: true, seed: 5, n: 1000})
	want := term(payloadGenTag, 5, 1000)
	if !bytes.HasSuffix(full.b, want) {
		t.Fatal("generated key encoding does not end with the tagged generator term")
	}
	if resultstore.KeyOf(full.b) != base {
		t.Fatal("storeKey is not the hash of its encoding")
	}
	bumped := append(full.b[:len(full.b)-len(want):len(full.b)-len(want)], term(payloadGenTag+"-next", 5, 1000)...)
	if resultstore.KeyOf(bumped) == base {
		t.Error("generator tag did not change the store key")
	}

	// The generated and bits forms share the config prefix, then open
	// their payload terms with distinct form tags, so they can never alias
	// — not even for the very bits the generator produces.
	for _, n := range []int{1, 63, 64, 1000} {
		bits := payload.Random(9, n)
		g := keyEnc(&cfg, &payloadSrc{gen: true, seed: 9, n: n})
		b := keyEnc(&cfg, &payloadSrc{bits: bits})
		i := 0
		for i < len(g.b) && i < len(b.b) && g.b[i] == b.b[i] {
			i++
		}
		if i != len(full.b)-len(want) || b.b[i] != payloadFormPacked {
			t.Errorf("n=%d: generated and bits encodings diverge at byte %d, not at the payload form tag", n, i)
		}
		if gen(9, n) == storeKey(&cfg, &payloadSrc{bits: bits}) {
			t.Errorf("n=%d: generated key equals the bits key of the same payload", n)
		}
	}
}

// keyEnc returns the canonical encoding storeKey hashes.
func keyEnc(cfg *Config, src *payloadSrc) *enc {
	e := newEnc(0)
	e.keyTerms(cfg, src)
	return e
}

func runRandom(t *testing.T, e *Engine, cfg Config, seed uint64, n int) *Result {
	t.Helper()
	res, err := e.RunRandom(cfg, seed, n)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunRandomMatchesRun pins RunRandom to its definition: for chained and
// unchained configs it DeepEquals Run(cfg, payload.Random(seed, n)) with no
// store, when simulated into an empty store, when served from the memory
// tier, and when served from disk by a fresh handle.
func TestRunRandomMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("channel runs")
	}
	const seed, n = 31, 4000
	plain := storeTestConfig()
	chained := plain
	chained.Chain = &ChainSpec{Key: 0x7a4d, Lengths: []int{n / 2, n}}

	for name, cfg := range map[string]Config{"unchained": plain, "chained": chained} {
		want := run(t, cfg, payload.Random(seed, n))
		if got := runRandom(t, NewEngine(EngineOptions{}), cfg, seed, n); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: storeless RunRandom differs from Run", name)
		}

		dir := t.TempDir()
		st, err := resultstore.Open(dir, resultstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(EngineOptions{Store: st})
		if got := runRandom(t, e, cfg, seed, n); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: cold RunRandom differs from Run", name)
		}
		if c := e.Counters(); c.Sims != 1 || c.StoreMisses != 1 {
			t.Errorf("%s: cold RunRandom did not simulate into the empty store: %+v", name, c)
		}

		e.DropCheckpoints()
		if got := runRandom(t, e, cfg, seed, n); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: memory-tier RunRandom differs from Run", name)
		}
		if s := st.Stats(); s.MemHits != 1 || s.Writes != 1 {
			t.Errorf("%s: store stats %+v, want 1 memory hit and 1 write", name, s)
		}

		disk, err := resultstore.Open(dir, resultstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		e = NewEngine(EngineOptions{Store: disk})
		if got := runRandom(t, e, cfg, seed, n); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: disk-served RunRandom differs from Run", name)
		}
		if s := disk.Stats(); s.Hits != 1 || s.MemHits != 0 {
			t.Errorf("%s: fresh handle stats %+v, want 1 disk hit", name, s)
		}
		if e.Counters().Sims != 0 {
			t.Errorf("%s: disk-served RunRandom simulated", name)
		}
	}
}

// TestRunRandomServedAllocs pins that a store hit never builds the payload:
// beyond reading and decoding the stored entry, a served 1M-bit RunRandom
// allocates less than the n/8 bytes a packed bits key alone would take
// (and far less than the n-byte payload), and simulates nothing. The read
// itself is measured and subtracted, and bounded too: the entry's Decoded
// is kept packed, so decoding it copies n/8 bytes, under n/4 in all, where
// a one-byte-per-bit vector would take n.
func TestRunRandomServedAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-bit channel run")
	}
	st, err := resultstore.Open(t.TempDir(), resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(EngineOptions{Store: st})
	const seed, n = 77, 1_000_000
	cfg := storeTestConfig()
	cfg.GapSampleEvery = 0
	cfg.TraceLevels = false
	runRandom(t, e, cfg, seed, n) // populate the entry
	key := storeKey(&cfg, &payloadSrc{gen: true, seed: seed, n: n})

	allocs := func(f func()) uint64 {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		f()
		runtime.ReadMemStats(&b)
		return b.TotalAlloc - a.TotalAlloc
	}
	read := allocs(func() {
		if e.storeLookup(key) == nil {
			t.Fatal("entry not stored")
		}
	})
	before := e.Counters()
	served := allocs(func() { runRandom(t, e, cfg, seed, n) })
	if c := e.Counters(); c.Sims != before.Sims || c.StoreHits != before.StoreHits+1 {
		t.Errorf("served RunRandom was not a store hit: %+v -> %+v", before, c)
	}
	if read >= n/4 {
		t.Errorf("store read allocated %d bytes, want < %d", read, n/4)
	}
	if served > read && served-read >= n/8 {
		t.Errorf("served RunRandom allocated %d bytes beyond the %d-byte store read, want < %d",
			served-read, read, n/8)
	}
}
