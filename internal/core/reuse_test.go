package core

import (
	"reflect"
	"testing"

	"streamline/internal/params"
	"streamline/internal/payload"
)

// TestReuseEquivalence pins the warm snapshot's contract: with reuse on,
// every repetition — the cold run that records the warmup, and the
// snapshot-replay runs under the recorder's seed and a fresh one — returns
// a Result byte-identical to a from-scratch build with reuse off.
func TestReuseEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-repetition channel runs")
	}
	bits := payload.Random(5, 2000)
	variants := map[string]func() Config{
		"skylake": func() Config {
			cfg := DefaultConfig()
			cfg.ArraySize = 16 << 20
			return cfg
		},
		"skylake-nopf": func() Config {
			cfg := DefaultConfig()
			cfg.ArraySize = 16 << 20
			cfg.DisablePrefetch = true
			return cfg
		},
		"kabylake": func() Config {
			cfg := DefaultConfig()
			cfg.ArraySize = 16 << 20
			cfg.Machine = params.KabyLakeI7()
			return cfg
		},
	}
	for name, mk := range variants {
		t.Run(name, func(t *testing.T) {
			scratch := NewEngine(EngineOptions{NoReuse: true})
			reuse := NewEngine(EngineOptions{})
			runWith := func(e *Engine, seed uint64) *Result {
				t.Helper()
				cfg := mk()
				cfg.Seed = seed
				return runOn(t, e, cfg, bits)
			}
			refA := runWith(scratch, 1)
			refB := runWith(scratch, 99)   // second seed, still from scratch
			gotCold := runWith(reuse, 1)   // builds, records the warmup
			gotSnap := runWith(reuse, 1)   // snapshot replay, same seed
			gotSeed := runWith(reuse, 99)  // snapshot replayed under a new seed
			gotAgain := runWith(reuse, 99) // repetition after repetition
			for i, pair := range []struct {
				label    string
				got, ref *Result
			}{
				{"cold", gotCold, refA},
				{"snapshot", gotSnap, refA},
				{"reseeded", gotSeed, refB},
				{"repeat", gotAgain, refB},
			} {
				if !reflect.DeepEqual(pair.got, pair.ref) {
					t.Errorf("case %d (%s): reuse result differs from scratch build", i, pair.label)
				}
			}
		})
	}
}
