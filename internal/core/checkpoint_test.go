package core

import (
	"reflect"
	"testing"

	"streamline/internal/noise"
	"streamline/internal/payload"
	"streamline/internal/statetest"
	"streamline/internal/syncch"
)

// chainTestConfig is a scaled-down DefaultConfig whose sync epochs and
// trailing lag fit the short test ladders.
func chainTestConfig() Config {
	cfg := DefaultConfig()
	cfg.ArraySize = 4 << 20
	cfg.WarmupBytes = 1 << 18
	cfg.SyncPeriod = 4000
	cfg.SyncLead = 500
	cfg.DelayedStartBits = 500
	cfg.TrailingLag = 500
	return cfg
}

// TestCheckpointForkEqualsFreshRun pins the tentpole contract of the
// checkpoint tree: a run forked from a published mid-run checkpoint — at
// any legal boundary, in any execution order, repeated or not — returns a
// Result byte-identical to an uninterrupted run.
func TestCheckpointForkEqualsFreshRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-repetition channel runs")
	}
	variants := map[string]func() (Config, []int){
		"default": func() (Config, []int) {
			return chainTestConfig(), []int{3000, 8000, 12000, 16000}
		},
		"ecc": func() (Config, []int) {
			cfg := chainTestConfig()
			cfg.ECC = true
			return cfg, []int{3200, 6400, 12800}
		},
		"instrumented": func() (Config, []int) {
			cfg := chainTestConfig()
			cfg.TraceLevels = true
			cfg.GapSampleEvery = 1000
			cfg.CamouflageAccesses = 2
			cfg.Noise = []noise.Config{{Name: "t", Shape: noise.Rand,
				Footprint: 1 << 20, ComputeGap: 100}}
			return cfg, []int{3000, 9000, 15000}
		},
		"naive-pattern": func() (Config, []int) {
			cfg := chainTestConfig()
			cfg.NaivePattern = true
			return cfg, []int{3000, 8000, 12000}
		},
	}
	for name, mk := range variants {
		t.Run(name, func(t *testing.T) {
			base, lengths := mk()
			maxLen := lengths[len(lengths)-1]
			bits := payload.Random(7, maxLen)
			e := NewEngine(EngineOptions{})
			runWith := func(eng *Engine, l int) *Result {
				t.Helper()
				cfg := base
				cfg.Chain = &ChainSpec{Key: 0xc0ffee, Lengths: lengths}
				return runOn(t, eng, cfg, bits[:l])
			}
			run := func(l int) *Result { return runWith(e, l) }
			// References: checkpoints off, Chain still declared (the
			// disabled path must ignore it entirely).
			off := NewEngine(EngineOptions{NoCheckpoints: true})
			fresh := make(map[int]*Result, len(lengths))
			for _, l := range lengths {
				fresh[l] = runWith(off, l)
			}

			check := func(order string, l int, got *Result) {
				t.Helper()
				if !reflect.DeepEqual(got, fresh[l]) {
					t.Errorf("%s order, length %d: chained result differs from fresh run", order, l)
				}
			}
			// Ascending: each member publishes its boundary, the next forks
			// from it.
			before := e.Counters()
			for _, l := range lengths {
				check("ascending", l, run(l))
			}
			after := e.Counters()
			if got, want := after.Forks-before.Forks, uint64(len(lengths)-1); got != want {
				t.Errorf("ascending order took %d forks, want %d", got, want)
			}
			if got, want := after.Nodes-before.Nodes, uint64(len(lengths)-1); got != want {
				t.Errorf("ascending order published %d nodes, want %d", got, want)
			}
			// Every boundary must now hold a node (all but the longest).
			for _, l := range lengths[:len(lengths)-1] {
				cfg := base
				cfg.Chain = &ChainSpec{Key: 0xc0ffee, Lengths: lengths}
				n := chainTxLen(&cfg, l)
				if !e.chainNodeExists(chainFingerprintFor(t, &cfg), int64(n)-1) {
					t.Errorf("ascending order left no node at boundary %d", n-1)
				}
			}
			// Repeat: with no result store a repeated member simulates
			// again, forking from the node its own run published.
			before = e.Counters()
			check("repeat", lengths[1], run(lengths[1]))
			if c := e.Counters(); c.Sims-before.Sims != 1 || c.Forks-before.Forks != 1 {
				t.Errorf("repeated member: %d sims, %d forks, want 1 and 1", c.Sims-before.Sims, c.Forks-before.Forks)
			}

			// Descending: the longest member runs first and publishes every
			// boundary in one pass; each shorter member forks at its own
			// final boundary and simulates only the last bit's completion.
			e.DropCheckpoints()
			for i := len(lengths) - 1; i >= 0; i-- {
				check("descending", lengths[i], run(lengths[i]))
			}
		})
	}
}

// chainFingerprintFor recomputes a config's chain fingerprint the way Run
// does (validate fills the machine).
func chainFingerprintFor(t *testing.T, cfg *Config) uint64 {
	t.Helper()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	return chainFingerprint(cfg)
}

// TestChainContractViolationFallsBack feeds two different payloads under
// one Chain.Key: the prefix-hash verification must reject the poisoned
// node and fall back to a correct cold run.
func TestChainContractViolationFallsBack(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-repetition channel runs")
	}
	base := chainTestConfig()
	base.Chain = &ChainSpec{Key: 0xbad, Lengths: []int{3000, 8000}}
	e := NewEngine(EngineOptions{})
	payloadA := payload.Random(11, 8000)
	payloadB := payload.Random(12, 8000) // different content, same chain key
	runOn(t, e, base, payloadA[:3000])   // publishes a node for payload A
	got := runOn(t, e, base, payloadB)   // must refuse the fork
	want := runOn(t, NewEngine(EngineOptions{NoCheckpoints: true}), base, payloadB)
	if !reflect.DeepEqual(got, want) {
		t.Error("violated chain contract produced a wrong result instead of a cold fallback")
	}
}

// Field audits: the checkpoint machinery hand-copies agent state, so a new
// field on any snapshotted component must show up here (and in the capture
// code) before it can silently corrupt forks. Each list is the full struct;
// the comment split documents what captures it.
func TestCheckpointFieldAudits(t *testing.T) {
	// sender: cfg/h/tx/sync/recvI/txS-identity/trailS-identity/camo-identity/
	// gapEvery/pause are rebuilt from config; the rest is senderState.
	statetest.Fields(t, sender{},
		"cfg", "h", "tx", "sync", "x", "recvI", "txS", "trailS", "camo",
		"pause", "i", "waiting", "waitStart", "SyncWaits", "SyncTimeouts",
		"Bits", "gapEvery", "maxGap", "gaps")
	// receiver: cfg/h/sync/camo-identity/rxS-identity/pause rebuilt; the
	// rest is receiverState (rx and levelTrace travel as prefixes).
	statetest.Fields(t, receiver{},
		"cfg", "h", "rx", "sync", "camo", "x", "pause", "rxS", "i",
		"syncBurst", "startTime", "endTime", "started", "Bits", "Levels",
		"levelTrace")
	// addrStream: pat/base/size rebuilt; lo and buf are streamState.
	statetest.Fields(t, addrStream{}, "pat", "base", "size", "buf", "lo")
	// camo: identity rebuilt; pos is the only mutable field, captured in
	// sender/receiverState.camoPos.
	statetest.Fields(t, camo{}, "h", "core", "reg", "per", "pos", "stride")
	// noise.Workload: identity rebuilt; pos/Accesses/x are noise.State; buf
	// is scratch every Step overwrites.
	statetest.Fields(t, noise.Workload{},
		"cfg", "h", "core", "reg", "x", "pos", "buf", "Accesses")
	// syncch.Channel: identity and tuning rebuilt; hitStreak/Signals/Polls
	// are syncch.State.
	statetest.Fields(t, syncch.Channel{},
		"h", "addr", "evict", "PollWait", "Confirmations", "hitStreak",
		"Signals", "Polls")
	// chainCheckpoint itself: every component of a frozen run.
	statetest.Fields(t, chainCheckpoint{},
		"boundary", "txHash", "ckpt", "sched", "snd", "rcv", "sync", "noise")
	// Config needs no list here: the chain fingerprint hashes the store
	// key's config encoding, which TestStoreKeySensitivity audits.
}
