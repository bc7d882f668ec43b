package core

import (
	"reflect"
	"testing"

	"streamline/internal/hier"
	"streamline/internal/payload"
)

// TestCounterHookDoesNotPerturbSimulation mirrors the runner's
// hook-inertness property (TestHookDoesNotInfluenceResults) for the
// performance-counter monitor: enabling Config.CounterWindow must change
// nothing about the run beyond Result.Counters itself.
func TestCounterHookDoesNotPerturbSimulation(t *testing.T) {
	bits := payload.Random(7, 60000)
	plain := testConfig()
	counted := plain
	counted.CounterWindow = 25_000
	ref := run(t, plain, bits)
	got := run(t, counted, bits)
	if len(got.Counters) < 2 {
		t.Fatalf("only %d counter windows recorded", len(got.Counters))
	}
	var rcvSeen uint64
	for _, w := range got.Counters {
		for _, v := range w.PerCore[counted.ReceiverCore] {
			rcvSeen += v
		}
	}
	if rcvSeen == 0 {
		t.Fatal("counters saw no receiver traffic")
	}
	got.Counters = nil
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("counter monitor perturbed the run:\nwith:    %+v\nwithout: %+v", got, ref)
	}
}

// TestCounterWindowsDeterministic pins that two identical counted runs
// produce byte-identical counter traces (the property the defmatrix golden
// relies on).
func TestCounterWindowsDeterministic(t *testing.T) {
	bits := payload.Random(7, 40000)
	cfg := testConfig()
	cfg.CounterWindow = 25_000
	a, b := run(t, cfg, bits), run(t, cfg, bits)
	if !reflect.DeepEqual(a.Counters, b.Counters) {
		t.Fatal("counter windows differ between identical runs")
	}
}

func TestQuotaExclusiveWithPartition(t *testing.T) {
	cfg := testConfig()
	cfg.Quota = &hier.QuotaConfig{}
	cfg.PartitionWays = 4
	if _, err := NewEngine(EngineOptions{}).Run(cfg, payload.Random(1, 10)); err == nil {
		t.Fatal("Quota together with PartitionWays accepted")
	}
}

// TestQuotaDefenseDegradesChannel runs the channel under the CacheBar-style
// defense: way budgets alone leave the channel working (the sender still
// installs lines the receiver hits), while copy-on-access denial of
// cross-domain hits destroys it — every probe is served from DRAM, so the
// decoded stream carries no signal.
func TestQuotaDefenseDegradesChannel(t *testing.T) {
	bits := payload.Random(7, 60000)

	quotaOnly := testConfig()
	quotaOnly.Quota = &hier.QuotaConfig{MinWays: 2, RebalancePeriod: 4096}
	if r := run(t, quotaOnly, bits).Errors.Rate(); r > 0.10 {
		t.Fatalf("way budgets alone broke the channel: error rate %.3f", r)
	}

	coa := testConfig()
	coa.Quota = &hier.QuotaConfig{MinWays: 2, RebalancePeriod: 4096, CopyOnAccess: true}
	if r := run(t, coa, bits).RawErrors.Rate(); r < 0.30 {
		t.Fatalf("copy-on-access left raw error rate %.3f; channel should be dead", r)
	}
}
