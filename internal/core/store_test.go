package core

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"streamline/internal/dram"
	"streamline/internal/ecc"
	"streamline/internal/hier"
	"streamline/internal/noise"
	"streamline/internal/params"
	"streamline/internal/payload"
	"streamline/internal/resultstore"
	"streamline/internal/rng"
	"streamline/internal/statetest"
	"streamline/internal/stats"
)

// fullResult returns a Result with every field populated (non-zero, non-nil)
// so a codec that drops a field cannot round-trip it. Decoded (13 bits) and
// LevelTrace (5 levels) both end part-way through their last packed byte,
// so the padding rules are exercised.
func fullResult() *Result {
	return &Result{
		PayloadBits: 4000, ChannelBits: 4500, Cycles: 987654,
		BitRateKBps: 391.25, ChannelKBps: 440.5,
		Errors:    stats.ErrorBreakdown{Total: 4000, Errors: 7, ZeroToOne: 3, OneToZero: 4},
		RawErrors: stats.ErrorBreakdown{Total: 4500, Errors: 12, ZeroToOne: 5, OneToZero: 7},
		ECCStats:  ecc.Result{Packets: 62, Corrected: 3, Detected: 1},
		MaxGap:    1234,
		GapSamples: []GapSample{
			{Bits: 1000, Gap: 800}, {Bits: 2000, Gap: -5},
		},
		SyncWaits: 3, SyncTimeouts: 1,
		Decoded:           payload.Pack([]byte{1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 1, 1}),
		ReceiverLevels:    [4]uint64{10, 20, 30, 40},
		CoreServed:        [][4]uint64{{1, 2, 3, 4}, {5, 6, 7, 8}},
		BurstSingleFrac01: 0.75, BurstSingleFrac10: 0.5,
		MaxBurst01: 9,
		LevelTrace: []byte{0, 1, 2, 3, 2},
		Counters: []hier.CounterWindow{
			{PerCore: [][4]uint64{{9, 8, 7, 6}, {5, 4, 3, 2}}},
			{PerCore: [][4]uint64{{1, 1, 1, 1}, {2, 2, 2, 2}}},
		},
	}
}

func TestResultCodecRoundTrip(t *testing.T) {
	cases := map[string]*Result{
		"full": fullResult(),
		"zero": {},
		"empty non-nil slices": {
			GapSamples: []GapSample{}, Decoded: payload.Pack([]byte{}),
			CoreServed: [][4]uint64{}, LevelTrace: []byte{},
			Counters: []hier.CounterWindow{{PerCore: [][4]uint64{}}, {}},
		},
	}
	for name, r := range cases {
		raw := encoded(r)
		if cap(raw) != len(raw) {
			t.Errorf("%s: encoded %d bytes into a buffer of %d: the size hint is off", name, len(raw), cap(raw))
		}
		got, err := decodeResult(raw)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Errorf("%s: round trip mismatch\n got: %+v\nwant: %+v", name, got, r)
		}
	}
}

// TestResultCodecFieldAudit pins the Result field list the codec was written
// against, and that of the counter windows it encodes: a new field fails
// here until encodeResult/decodeResult carry it and storeKeySchema is
// bumped.
func TestResultCodecFieldAudit(t *testing.T) {
	statetest.Fields(t, Result{},
		"PayloadBits", "ChannelBits", "Cycles", "BitRateKBps", "ChannelKBps",
		"Errors", "RawErrors", "ECCStats", "MaxGap", "GapSamples",
		"SyncWaits", "SyncTimeouts", "Decoded", "ReceiverLevels", "CoreServed",
		"BurstSingleFrac01", "BurstSingleFrac10", "MaxBurst01", "LevelTrace",
		"Counters")
	statetest.Fields(t, hier.CounterWindow{}, "PerCore")
}

// encoded is encodeResult for a Result known to be encodable.
func encoded(r *Result) []byte {
	raw, err := encodeResult(r)
	if err != nil {
		panic(err)
	}
	return raw
}

// TestResultEncodeRejectsLevelAbove3: a serving level above 3 has no 2-bit
// wire form, so encodeResult refuses it rather than truncate it, and the
// write-back skips such a Result instead of storing a wrong one.
func TestResultEncodeRejectsLevelAbove3(t *testing.T) {
	r := fullResult()
	r.LevelTrace[2] = 4
	if _, err := encodeResult(r); err == nil {
		t.Fatal("encodeResult accepted level 4")
	}
	st, err := resultstore.Open(t.TempDir(), resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(EngineOptions{Store: st})
	key := cfgKey(DefaultConfig())
	e.storePut(key, r)
	if s := st.Stats(); s.Writes != 0 || s.WriteErrors != 0 || s.Entries != 0 {
		t.Errorf("unencodable Result reached the store: %+v", s)
	}
	r.LevelTrace[2] = 3
	e.storePut(key, r)
	if s := st.Stats(); s.Writes != 1 || s.Entries != 1 {
		t.Errorf("encodable Result not written: %+v", s)
	}
}

// corruptResults builds, from the encoding of fullResult, each kind of
// structural damage the Result codec must reject. TestResultCodecRejectsCorrupt
// checks every one is rejected, and FuzzDecodeResult starts from them.
func corruptResults() map[string][]byte {
	good := encoded(fullResult())
	edit := func(fn func(b []byte) []byte) []byte {
		return fn(append([]byte(nil), good...))
	}
	// headerAt locates a slice header (nil flag, then length) by diffing
	// against an encoding that differs only in that field being nil; the
	// packed bytes follow the 9-byte header.
	headerAt := func(drop func(r *Result)) int {
		r := fullResult()
		drop(r)
		other := encoded(r)
		at := 0
		for good[at] == other[at] {
			at++
		}
		return at
	}
	flag := headerAt(func(r *Result) { r.GapSamples = nil })
	bits := headerAt(func(r *Result) { r.Decoded = payload.Bits{} })
	levels := headerAt(func(r *Result) { r.LevelTrace = nil })
	return map[string][]byte{
		"truncated": good[:len(good)-3],
		"trailing":  edit(func(b []byte) []byte { return append(b, 0) }),
		// A bool byte outside {0,1} marks structural corruption.
		"non-bool nil flag": edit(func(b []byte) []byte { b[flag] = 7; return b }),
		"nil with a length": edit(func(b []byte) []byte { b[flag] = 1; return b }),
		"implausible length": edit(func(b []byte) []byte {
			for i := 1; i <= 8; i++ {
				b[flag+i] = 0x7f
			}
			return b
		}),
		// Decoded holds 13 bits in 2 bytes: bits 5-7 of the second are
		// padding and must be zero.
		"nonzero bit padding": edit(func(b []byte) []byte { b[bits+10] |= 0x80; return b }),
		"bit count past input": edit(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[bits+1:], uint64(8*len(b)))
			return b
		}),
		// LevelTrace holds 5 levels in 2 bytes: the second carries one
		// level, so any value of 4 or more sets padding bits.
		"level byte above 3": edit(func(b []byte) []byte { b[levels+10] |= 4; return b }),
	}
}

func TestResultCodecRejectsCorrupt(t *testing.T) {
	for name, raw := range corruptResults() {
		if _, err := decodeResult(raw); err == nil {
			t.Errorf("decode accepted a %s payload", name)
		}
	}
}

// keyedConfig is the key-sensitivity base: every optional sub-config
// populated so field mutations inside them are visible to the audit.
func keyedConfig() Config {
	cfg := DefaultConfig()
	d := dram.DefaultConfig()
	cfg.DRAM = &d
	cfg.Noise = []noise.Config{{Name: "stress", Shape: noise.Rand,
		Footprint: 1 << 20, ComputeGap: 100, Stride: 64, Parallel: 2}}
	cfg.Quota = &hier.QuotaConfig{DomainWays: []int{4, 4}, MinWays: 1,
		RebalancePeriod: 1000, CopyOnAccess: true}
	cfg.GapSampleEvery = 500
	cfg.CamouflageAccesses = 2
	cfg.ThresholdOverride = 90
	cfg.PreambleBits = 100
	cfg.CounterWindow = 10000
	cfg.GapClamp = 4000
	return cfg
}

// cfgKey is cfg's store key under a fixed payload.
func cfgKey(cfg Config) resultstore.Key {
	return storeKey(&cfg, &payloadSrc{bits: []byte{1, 0, 1}})
}

// chainFP is cfg's chain fingerprint under a fixed chain key.
func chainFP(cfg Config) uint64 {
	cfg.Chain = &ChainSpec{Key: 1}
	return chainFingerprint(&cfg)
}

// TestStoreKeySensitivity is the run-identity audit: every Config field
// either moves the store key and the chain fingerprint when mutated or is
// documented as excluded — and the statetest field audit forces a new
// Config field to show up in one of those lists before the suite passes
// again. Each keyed field also
// declares whether it shapes the hierarchy: exactly those fields move the
// run fingerprint (runFingerprint).
func TestStoreKeySensitivity(t *testing.T) {
	base := keyedConfig()
	baseKey := cfgKey(base)
	baseChain, baseRun := chainFP(base), runFingerprint(&base)

	change := map[string]struct {
		shapes bool // shapes the hierarchy, so it must move the run fingerprint
		mutate func(*Config)
	}{
		"Machine":            {true, func(c *Config) { m := params.SkylakeE3(); m.FreqMHz++; c.Machine = m }},
		"ArraySize":          {false, func(c *Config) { c.ArraySize *= 2 }},
		"Seed":               {false, func(c *Config) { c.Seed++ }},
		"KeySeed":            {false, func(c *Config) { c.KeySeed++ }},
		"Modulate":           {false, func(c *Config) { c.Modulate = !c.Modulate }},
		"TrailingLag":        {false, func(c *Config) { c.TrailingLag++ }},
		"RateLimitSender":    {false, func(c *Config) { c.RateLimitSender = !c.RateLimitSender }},
		"SyncPeriod":         {false, func(c *Config) { c.SyncPeriod++ }},
		"SyncLead":           {false, func(c *Config) { c.SyncLead++ }},
		"DelayedStartBits":   {false, func(c *Config) { c.DelayedStartBits++ }},
		"ECC":                {false, func(c *Config) { c.ECC = !c.ECC }},
		"PreambleBits":       {false, func(c *Config) { c.PreambleBits++ }},
		"SenderCore":         {false, func(c *Config) { c.SenderCore = 2 }},
		"ReceiverCore":       {false, func(c *Config) { c.ReceiverCore = 3 }},
		"SameCore":           {false, func(c *Config) { c.SameCore = !c.SameCore }},
		"ThresholdOverride":  {false, func(c *Config) { c.ThresholdOverride++ }},
		"DisablePrefetch":    {true, func(c *Config) { c.DisablePrefetch = !c.DisablePrefetch }},
		"TraceLevels":        {false, func(c *Config) { c.TraceLevels = !c.TraceLevels }},
		"OSJitter":           {false, func(c *Config) { c.OSJitter = !c.OSJitter }},
		"WarmupBytes":        {false, func(c *Config) { c.WarmupBytes++ }},
		"HugePages":          {true, func(c *Config) { c.HugePages = !c.HugePages }},
		"SystemNoise":        {false, func(c *Config) { c.SystemNoise = !c.SystemNoise }},
		"GapSampleEvery":     {false, func(c *Config) { c.GapSampleEvery++ }},
		"CamouflageAccesses": {false, func(c *Config) { c.CamouflageAccesses++ }},
		"PartitionWays":      {true, func(c *Config) { c.PartitionWays++ }},
		"RandomFillProb":     {true, func(c *Config) { c.RandomFillProb += 0.25 }},
		"CounterWindow":      {false, func(c *Config) { c.CounterWindow++ }},
		"GapClamp":           {false, func(c *Config) { c.GapClamp++ }},
		"NaivePattern":       {false, func(c *Config) { c.NaivePattern = !c.NaivePattern }},
		"LLCPolicy":          {false, func(c *Config) { c.LLCPolicy = "lru" }},

		// Pointer sub-configs: presence and every inner field must move the
		// key. The statetest audits below keep the inner lists exhaustive.
		"DRAM":  {true, func(c *Config) { c.DRAM = nil }},
		"Noise": {false, func(c *Config) { c.Noise = nil }},
		"Quota": {false, func(c *Config) { c.Quota = nil }},
	}
	// Chain is a pure scheduling optimization — the golden suite's
	// checkpoint-off axis pins that results are bit-identical with and
	// without it — so chained and unchained runs share store entries.
	excluded := map[string]func(*Config){
		"Chain": func(c *Config) { c.Chain = &ChainSpec{Key: 1, Lengths: []int{100, 200}} },
	}

	var covered []string
	for name := range change {
		covered = append(covered, name)
	}
	for name := range excluded {
		covered = append(covered, name)
	}
	statetest.Fields(t, Config{}, covered...)

	for name, m := range change {
		cfg := keyedConfig()
		m.mutate(&cfg)
		if cfgKey(cfg) == baseKey {
			t.Errorf("mutating Config.%s did not change the store key — storeKey is missing the field", name)
		}
		if chainFP(cfg) == baseChain {
			t.Errorf("mutating Config.%s did not change the chain fingerprint", name)
		}
		if moved := runFingerprint(&cfg) != baseRun; moved != m.shapes {
			t.Errorf("mutating Config.%s moved the run fingerprint: %v, want %v", name, moved, m.shapes)
		}
	}
	for name, mutate := range excluded {
		cfg := keyedConfig()
		mutate(&cfg)
		if cfgKey(cfg) != baseKey {
			t.Errorf("Config.%s is documented as key-excluded but changed the key", name)
		}
	}

	// The chain key separates chain families that share a config.
	other := base
	other.Chain = &ChainSpec{Key: 2}
	if chainFingerprint(&other) == baseChain {
		t.Error("Chain.Key did not change the chain fingerprint")
	}
	// Partitioned, the receiver's core picks the trust domains the
	// hierarchy is built with.
	part := keyedConfig()
	part.PartitionWays = 4
	moved := part
	moved.ReceiverCore = 3
	if runFingerprint(&part) == runFingerprint(&moved) {
		t.Error("partitioned, ReceiverCore did not change the run fingerprint")
	}

	// Payload identity is part of the key.
	if storeKey(&base, &payloadSrc{bits: []byte{1, 0, 0}}) == baseKey {
		t.Error("payload content did not change the store key")
	}
	if storeKey(&base, &payloadSrc{bits: []byte{1, 0, 1, 0}}) == baseKey {
		t.Error("payload length did not change the store key")
	}
}

// TestStoreKeySubConfigSensitivity extends the audit into the pointed-to
// sub-configs: every field of dram.Config, hier.QuotaConfig, and
// noise.Config must move the store key and the chain fingerprint, every
// DRAM field must move the run fingerprint too, and the statetest audits
// fail the moment any of those structs gains a field the encoder misses.
func TestStoreKeySubConfigSensitivity(t *testing.T) {
	statetest.Fields(t, dram.Config{}, "Banks", "RowBytes", "RowHit", "RowMiss",
		"RowConflict", "JitterSD", "BankBusy", "ChannelBusy", "RowCloseCycles",
		"FastTailProb", "FastTailLat", "MinLatency")
	statetest.Fields(t, hier.QuotaConfig{}, "DomainWays", "MinWays",
		"RebalancePeriod", "CopyOnAccess")
	statetest.Fields(t, noise.Config{}, "Name", "Shape", "Footprint",
		"ComputeGap", "Stride", "Parallel")

	base := keyedConfig()
	baseKey := cfgKey(base)
	baseChain, baseRun := chainFP(base), runFingerprint(&base)
	muts := map[string]func(*Config){
		"DRAM.Banks":            func(c *Config) { c.DRAM.Banks++ },
		"DRAM.RowBytes":         func(c *Config) { c.DRAM.RowBytes *= 2 },
		"DRAM.RowHit":           func(c *Config) { c.DRAM.RowHit++ },
		"DRAM.RowMiss":          func(c *Config) { c.DRAM.RowMiss++ },
		"DRAM.RowConflict":      func(c *Config) { c.DRAM.RowConflict++ },
		"DRAM.JitterSD":         func(c *Config) { c.DRAM.JitterSD++ },
		"DRAM.BankBusy":         func(c *Config) { c.DRAM.BankBusy++ },
		"DRAM.ChannelBusy":      func(c *Config) { c.DRAM.ChannelBusy++ },
		"DRAM.RowCloseCycles":   func(c *Config) { c.DRAM.RowCloseCycles++ },
		"DRAM.FastTailProb":     func(c *Config) { c.DRAM.FastTailProb += 0.1 },
		"DRAM.FastTailLat":      func(c *Config) { c.DRAM.FastTailLat++ },
		"DRAM.MinLatency":       func(c *Config) { c.DRAM.MinLatency++ },
		"Quota.DomainWays":      func(c *Config) { c.Quota.DomainWays = []int{2, 6} },
		"Quota.MinWays":         func(c *Config) { c.Quota.MinWays++ },
		"Quota.RebalancePeriod": func(c *Config) { c.Quota.RebalancePeriod++ },
		"Quota.CopyOnAccess":    func(c *Config) { c.Quota.CopyOnAccess = !c.Quota.CopyOnAccess },
		"Noise.Name":            func(c *Config) { c.Noise[0].Name = "other" },
		"Noise.Shape":           func(c *Config) { c.Noise[0].Shape = noise.Seq },
		"Noise.Footprint":       func(c *Config) { c.Noise[0].Footprint *= 2 },
		"Noise.ComputeGap":      func(c *Config) { c.Noise[0].ComputeGap++ },
		"Noise.Stride":          func(c *Config) { c.Noise[0].Stride *= 2 },
		"Noise.Parallel":        func(c *Config) { c.Noise[0].Parallel++ },
		"Noise.len":             func(c *Config) { c.Noise = append(c.Noise, c.Noise[0]) },
	}
	for name, mutate := range muts {
		cfg := keyedConfig()
		mutate(&cfg)
		if cfgKey(cfg) == baseKey {
			t.Errorf("mutating %s did not change the store key", name)
		}
		if chainFP(cfg) == baseChain {
			t.Errorf("mutating %s did not change the chain fingerprint", name)
		}
		shapes := strings.HasPrefix(name, "DRAM.")
		if moved := runFingerprint(&cfg) != baseRun; moved != shapes {
			t.Errorf("mutating %s moved the run fingerprint: %v, want %v", name, moved, shapes)
		}
	}
}

// storeTestConfig is a scaled-down run for the serving tests.
func storeTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Seed = 4242
	cfg.ArraySize = 4 << 20
	cfg.WarmupBytes = 1 << 18
	cfg.SyncPeriod = 4000
	cfg.SyncLead = 500
	cfg.DelayedStartBits = 500
	cfg.TrailingLag = 500
	cfg.GapSampleEvery = 1000
	cfg.TraceLevels = true
	return cfg
}

// TestRunServedFromStore pins the read-through/write-back contract: the
// second identical Run is served from disk, DeepEquals the simulated first,
// and checks out no simulator.
func TestRunServedFromStore(t *testing.T) {
	if testing.Short() {
		t.Skip("channel runs")
	}
	st, err := resultstore.Open(t.TempDir(), resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(EngineOptions{Store: st})

	cfg := storeTestConfig()
	bits := payload.Random(7, 4000)
	cold := runOn(t, e, cfg, bits)
	warm := runOn(t, e, cfg, bits)

	if !reflect.DeepEqual(warm, cold) {
		t.Error("served Result differs from the simulated one")
	}
	if c := e.Counters(); c.StoreHits != 1 || c.Sims != 1 {
		t.Errorf("counters %+v, want the warm run served (1 store hit) with no second simulation", c)
	}
	if s := st.Stats(); s.Hits != 1 || s.Writes != 1 {
		t.Errorf("store stats %+v, want exactly 1 hit and 1 write", s)
	}
}

// TestRunStoreCorruptFallback is the corruption-hardening satellite at the
// Run level: a bit-flipped entry must be detected, quarantined, and
// transparently re-simulated to a byte-identical Result, recording a miss.
func TestRunStoreCorruptFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("channel runs")
	}
	dir := t.TempDir()
	st, err := resultstore.Open(dir, resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := storeTestConfig()
	bits := payload.Random(11, 4000)
	cold := runOn(t, NewEngine(EngineOptions{Store: st}), cfg, bits)

	// Flip one payload bit in the single stored entry, the one key-named
	// file (the store's index journal sits beside the shard directories).
	var entry string
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if _, kerr := resultstore.ParseKey(d.Name()); kerr == nil {
				entry = path
			}
		}
		return err
	})
	if err != nil || entry == "" {
		t.Fatalf("no store entry found: %v", err)
	}
	raw, err := os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(entry, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// The writer handle's memory tier still holds the pristine bytes (and
	// would correctly keep serving them). Disk corruption is observed by
	// the next process, whose memory tier starts cold: model it with a
	// fresh handle over the same directory.
	st, err = resultstore.Open(dir, resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(EngineOptions{Store: st})

	again := runOn(t, e, cfg, bits)
	after := e.Counters()

	if !reflect.DeepEqual(again, cold) {
		t.Error("re-simulated Result after corruption differs from the original")
	}
	if after.StoreMisses != 1 || after.Sims != 1 {
		t.Errorf("counters %+v: corrupt entry did not miss and fall back to simulation", after)
	}
	s := st.Stats()
	if s.Quarantined != 1 {
		t.Errorf("store stats %+v, want 1 quarantined", s)
	}
	if _, err := os.Stat(entry + ".corrupt"); err != nil {
		t.Errorf("corrupt entry not renamed aside: %v", err)
	}

	// The fallback's write-back healed the entry: third run is a hit again.
	healed := runOn(t, e, cfg, bits)
	if !reflect.DeepEqual(healed, cold) {
		t.Error("healed Result differs from the original")
	}
	if c := e.Counters(); c.StoreHits != after.StoreHits+1 {
		t.Error("healed entry not served as a hit")
	}
}

// TestRunWriteErrorCounted injects a failing write-back: a regular file
// sits where every shard directory should go. The run must still return
// the storeless Result, and the lost write must be counted.
func TestRunWriteErrorCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("channel runs")
	}
	cfg := storeTestConfig()
	bits := payload.Random(13, 4000)
	want := run(t, cfg, bits)

	dir := t.TempDir()
	st, err := resultstore.Open(dir, resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%02x", i)), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got := runOn(t, NewEngine(EngineOptions{Store: st}), cfg, bits)
	if !reflect.DeepEqual(got, want) {
		t.Error("Result with a failing write-back differs from the storeless run")
	}
	if s := st.Stats(); s.WriteErrors != 1 || s.Writes != 0 || s.Entries != 0 {
		t.Errorf("store stats %+v, want exactly 1 write error and nothing stored", s)
	}
}

// TestPayloadKeyBits pins the packed payload encoding the key derivation
// hashes: the word-at-a-time packer must agree bit-for-bit with the
// obvious scalar packer at every alignment, out-of-contract payloads
// (a byte above 1) must rewind to the tagged raw form, and neither form
// may alias the other or a different payload.
func TestPayloadKeyBits(t *testing.T) {
	encode := func(p []byte) string {
		e := newEnc(0)
		e.payloadKeyBits(p)
		return string(e.b)
	}
	// Scalar reference: tag, bit length, then bit i of the payload at
	// bit position i&7 of packed byte i>>3.
	reference := func(p []byte) string {
		e := newEnc(0)
		e.bool(true)
		e.i(len(p))
		packed := make([]byte, (len(p)+7)/8)
		for i, b := range p {
			packed[i>>3] |= (b & 1) << (i & 7)
		}
		e.b = append(e.b, packed...)
		return string(e.b)
	}
	r := rng.New(99)
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 64, 100, 1000, 1023} {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(r.Uint64() & 1)
		}
		if got, want := encode(p), reference(p); got != want {
			t.Fatalf("len %d: packed encoding diverges from the scalar reference", n)
		}
	}

	// Distinct 0/1 payloads must encode distinctly (injectivity within
	// the packed form), including across lengths that pack to the same
	// byte count.
	if encode([]byte{1, 0, 1}) == encode([]byte{1, 0, 1, 0}) {
		t.Error("payload length aliases in the packed form")
	}
	if encode([]byte{1, 0, 1}) == encode([]byte{1, 1, 1}) {
		t.Error("payload content aliases in the packed form")
	}

	// An out-of-contract byte falls back to the raw form — at any
	// position a word or tail scan could miss — and the raw form cannot
	// alias the packed form of the payload it would pack to.
	for _, pos := range []int{0, 3, 7, 8, 12, 15} {
		p := make([]byte, 16)
		p[pos] = 2
		e := newEnc(0)
		e.bytes(nil) // placeholder so raw/packed prefixes differ from empty
		raw := newEnc(0)
		raw.bool(false)
		raw.bytes(p)
		e2 := newEnc(0)
		e2.payloadKeyBits(p)
		if string(e2.b) != string(raw.b) {
			t.Fatalf("byte 2 at %d: did not rewind to the raw form", pos)
		}
		lowbits := make([]byte, 16) // what p would pack to if &1 were applied
		if string(e2.b) == encode(lowbits) {
			t.Fatalf("byte 2 at %d: raw form aliases the packed low-bit payload", pos)
		}
	}
}

// TestChainedAndUnchainedShareOneEntry pins the store key's treatment of
// Chain: the key excludes it, so a chained run and an unchained run of the
// same config × payload meet in one store entry — in either order — and
// both DeepEqual a fresh simulation with every reuse layer off.
func TestChainedAndUnchainedShareOneEntry(t *testing.T) {
	if testing.Short() {
		t.Skip("channel runs")
	}
	cfg := storeTestConfig()
	bits := payload.Random(23, 6000)
	chained := cfg
	chained.Chain = &ChainSpec{Key: 0x5a7e, Lengths: []int{3000, 6000}}

	fresh := runOn(t, NewEngine(EngineOptions{NoReuse: true, NoCheckpoints: true}), cfg, bits)

	for _, chainedFirst := range []bool{true, false} {
		st, err := resultstore.Open(t.TempDir(), resultstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(EngineOptions{Store: st})
		first, second := chained, cfg
		if !chainedFirst {
			first, second = cfg, chained
		}
		a := runOn(t, e, first, bits)
		b := runOn(t, e, second, bits)

		if !reflect.DeepEqual(a, fresh) || !reflect.DeepEqual(b, fresh) {
			t.Errorf("chained first %v: a served or simulated Result differs from the fresh run", chainedFirst)
		}
		if got := e.Counters().Sims; got != 1 {
			t.Errorf("chained first %v: %d simulations, want 1", chainedFirst, got)
		}
		if s := st.Stats(); s.Writes != 1 || s.Hits != 1 || s.Entries != 1 {
			t.Errorf("chained first %v: store stats %+v, want 1 write, 1 hit, 1 entry", chainedFirst, s)
		}
		key := storeKey(&chained, &payloadSrc{bits: bits})
		if key != storeKey(&cfg, &payloadSrc{bits: bits}) {
			t.Fatal("chained and unchained store keys differ")
		}
		raw, ok := st.Get(key)
		if !ok {
			t.Fatalf("chained first %v: no store entry under the shared key", chainedFirst)
		}
		if r, err := decodeResult(raw); err != nil || !reflect.DeepEqual(r, fresh) {
			t.Errorf("chained first %v: store entry under the shared key differs from the fresh run (%v)", chainedFirst, err)
		}
	}
}

// TestMemOnlyStoreServesRepeats pins the engine's one result cache: with a
// memory-only store, a repeated chained run — checkpoint tree emptied —
// and an unchained run of the same config × payload are store hits that
// simulate nothing; with no store, both simulate.
func TestMemOnlyStoreServesRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("channel runs")
	}
	cfg := storeTestConfig()
	chained := cfg
	chained.Chain = &ChainSpec{Key: 0x5e7e, Lengths: []int{2000, 4000}}
	bits := payload.Random(29, 4000)

	for _, memOnly := range []bool{true, false} {
		var st *resultstore.Store
		if memOnly {
			var err error
			if st, err = resultstore.Open("", resultstore.Options{}); err != nil {
				t.Fatal(err)
			}
		}
		e := NewEngine(EngineOptions{Store: st})
		cold := runOn(t, e, chained, bits)
		e.DropCheckpoints()
		for _, c := range []struct {
			name string
			cfg  Config
		}{{"chained repeat", chained}, {"unchained", cfg}} {
			before := e.Counters()
			got := runOn(t, e, c.cfg, bits)
			after := e.Counters()
			if !reflect.DeepEqual(got, cold) {
				t.Errorf("memory-only %v, %s: Result differs from the first run", memOnly, c.name)
			}
			sims, hits := after.Sims-before.Sims, after.StoreHits-before.StoreHits
			if memOnly && (sims != 0 || hits != 1) {
				t.Errorf("memory-only store, %s: %d sims, %d store hits, want 0 and 1", c.name, sims, hits)
			}
			if !memOnly && (sims != 1 || hits != 0) {
				t.Errorf("no store, %s: %d sims, %d store hits, want 1 and 0", c.name, sims, hits)
			}
		}
	}
}
