package core

import (
	"reflect"
	"testing"

	"streamline/internal/attacks"
	"streamline/internal/hier"
	"streamline/internal/params"
	"streamline/internal/resultstore"
	"streamline/internal/statetest"
)

// keyedSpec is the attack key-sensitivity base: every field set, with
// defmatrix's CacheBar-style quota (two-way floor, rebalanced every 4096
// lookups, copy-on-access).
func keyedSpec() attacks.Spec {
	return attacks.Spec{
		Kind: "flush+reload", Machine: params.SkylakeE3(), Window: 1600, Seed: 9,
		AlignJitter: 150, CounterWindow: 100_000, PartitionWays: 8,
		CoreDomains: []int{0, 1, 0, 0}, RandomFillProb: 0.25,
		Quota: &hier.QuotaConfig{MinWays: 2, RebalancePeriod: 4096, CopyOnAccess: true},
	}
}

// TestAttackKeySensitivity is the attack run-identity audit: mutating any
// Spec field, any QuotaConfig field, or the payload moves attackKey, and
// the statetest audit fails the moment Spec gains a field this table does
// not mutate.
func TestAttackKeySensitivity(t *testing.T) {
	const seed, n = 3, 1000
	base := keyedSpec()
	baseKey := attackKey(&base, seed, n)

	muts := map[string]func(*attacks.Spec){
		"Kind":           func(s *attacks.Spec) { s.Kind = "flush+flush" },
		"Machine":        func(s *attacks.Spec) { s.Machine = params.ARMCortexA72() },
		"Window":         func(s *attacks.Spec) { s.Window++ },
		"Seed":           func(s *attacks.Spec) { s.Seed++ },
		"AlignJitter":    func(s *attacks.Spec) { s.AlignJitter = 600 },
		"CounterWindow":  func(s *attacks.Spec) { s.CounterWindow++ },
		"PartitionWays":  func(s *attacks.Spec) { s.PartitionWays++ },
		"CoreDomains":    func(s *attacks.Spec) { s.CoreDomains = []int{0, 1, 1, 0} },
		"RandomFillProb": func(s *attacks.Spec) { s.RandomFillProb = 0.5 },
		"Quota":          func(s *attacks.Spec) { s.Quota = nil },
	}
	var covered []string
	for name := range muts {
		covered = append(covered, name)
	}
	statetest.Fields(t, attacks.Spec{}, covered...)
	statetest.Fields(t, hier.QuotaConfig{}, "DomainWays", "MinWays",
		"RebalancePeriod", "CopyOnAccess")
	muts["Machine.FreqMHz"] = func(s *attacks.Spec) { s.Machine.FreqMHz++ }
	muts["CoreDomains.nil"] = func(s *attacks.Spec) { s.CoreDomains = nil }
	muts["Quota.DomainWays"] = func(s *attacks.Spec) { s.Quota.DomainWays = []int{4, 4} }
	muts["Quota.MinWays"] = func(s *attacks.Spec) { s.Quota.MinWays++ }
	muts["Quota.RebalancePeriod"] = func(s *attacks.Spec) { s.Quota.RebalancePeriod++ }
	muts["Quota.CopyOnAccess"] = func(s *attacks.Spec) { s.Quota.CopyOnAccess = false }

	for name, mutate := range muts {
		s := keyedSpec()
		mutate(&s)
		if attackKey(&s, seed, n) == baseKey {
			t.Errorf("mutating Spec.%s did not change the attack key — attackKey is missing the field", name)
		}
	}
	if attackKey(&base, seed+1, n) == baseKey || attackKey(&base, seed, n+1) == baseKey {
		t.Error("the payload's seed or length did not change the attack key")
	}
	// nil and an explicit default machine name the same run.
	def := base
	def.Machine = nil
	if attackKey(&def, seed, n) != baseKey {
		t.Error("a nil Machine keys apart from the explicit default it resolves to")
	}
}

// TestXYProbeKeySensitivity: every argument of RunXYProbe moves its key.
func TestXYProbeKeySensitivity(t *testing.T) {
	m := params.SkylakeE3()
	arm := params.ARMCortexA72()
	base := xyProbeKey(m, 1, 3, 2, 1000)
	for name, k := range map[string]resultstore.Key{
		"machine": xyProbeKey(arm, 1, 3, 2, 1000),
		"seed":    xyProbeKey(m, 2, 3, 2, 1000),
		"x":       xyProbeKey(m, 1, 4, 2, 1000),
		"y":       xyProbeKey(m, 1, 3, 3, 1000),
		"n":       xyProbeKey(m, 1, 3, 2, 1001),
	} {
		if k == base {
			t.Errorf("changing the probe's %s did not change its key", name)
		}
	}
}

// TestRunAttackAndXYProbeServed pins the serving contract of the two
// typed runs on a memory-only store: the first call simulates (+1 Sims,
// +1 miss), the repeat is served (0 Sims, +1 hit) and DeepEquals the
// simulated Result; a different payload seed misses again.
func TestRunAttackAndXYProbeServed(t *testing.T) {
	st, err := resultstore.Open("", resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(EngineOptions{Store: st})
	spec := attacks.Spec{Kind: "flush+reload", Seed: 5, CounterWindow: 100_000}
	runs := map[string]func(seed uint64) (*Result, error){
		"attack": func(seed uint64) (*Result, error) { return e.RunAttack(spec, seed, 2000) },
		"probe":  func(seed uint64) (*Result, error) { return e.RunXYProbe(seed, 3, 2, 1000) },
	}
	for name, run := range runs {
		step := func(seed uint64, wantSims, wantHits uint64) *Result {
			t.Helper()
			before := e.Counters()
			res, err := run(seed)
			if err != nil {
				t.Fatal(err)
			}
			after := e.Counters()
			sims, hits, misses := after.Sims-before.Sims, after.StoreHits-before.StoreHits, after.StoreMisses-before.StoreMisses
			if sims != wantSims || hits != wantHits || misses != 1-wantHits {
				t.Errorf("%s: %d sims, %d hits, %d misses; want %d, %d, %d",
					name, sims, hits, misses, wantSims, wantHits, 1-wantHits)
			}
			return res
		}
		fresh := step(7, 1, 0)
		if served := step(7, 0, 1); !reflect.DeepEqual(served, fresh) {
			t.Errorf("%s: served Result differs from the simulated one", name)
		}
		step(8, 1, 0)
	}

	res, err := e.RunAttack(spec, 7, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if res.PayloadBits != 2000 || res.Cycles == 0 || res.BitRateKBps == 0 || len(res.Counters) == 0 {
		t.Errorf("attack Result missing fields: %+v", res)
	}
	probe, err := e.RunXYProbe(7, 3, 2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	var loads uint64
	for _, v := range probe.ReceiverLevels {
		loads += v
	}
	if loads != 1000 || probe.ReceiverLevels[hier.DRAM] == 0 {
		t.Errorf("probe counted %v by level, want 1000 loads with some DRAM misses", probe.ReceiverLevels)
	}
	if _, err := e.RunAttack(attacks.Spec{Kind: "flush+reload", Machine: params.ARMCortexA72()}, 1, 100); err == nil {
		t.Error("a flush attack ran on ARM")
	}
}
