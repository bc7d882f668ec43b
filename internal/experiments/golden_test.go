package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"streamline/internal/core"
	"streamline/internal/resultstore"
)

// The golden conformance suite pins the exact formatted output of every
// experiment at a fixed seed and smoke-test scale. It guards two
// properties at once:
//
//  1. Reproducibility: the experiment pipeline (seed derivation, channel
//     simulation, aggregation, formatting) produces bit-identical output
//     across versions. Any behavioural change — intended or not — shows
//     up as a golden diff and must be reviewed by regenerating with
//     -update.
//  2. Parallel determinism: running the same sweep across an 8-worker
//     pool reproduces the serial reference byte for byte, proving result
//     order and seeding are independent of scheduling.
//
// Regenerate after an intentional change with:
//
//	go test ./internal/experiments -run TestGoldenConformance -update

var update = flag.Bool("update", false, "rewrite golden files from the serial (-workers 1) reference run")

const goldenSeed = 42

func goldenOutput(t *testing.T, id string, workers int, e *core.Engine) []byte {
	t.Helper()
	tab, err := Run(id, Opts{Seed: goldenSeed, Quick: true, Workers: workers, Engine: e})
	if err != nil {
		t.Fatalf("Run(%q, workers=%d): %v", id, workers, err)
	}
	var buf bytes.Buffer
	tab.Format(&buf)
	return buf.Bytes()
}

// checkGolden compares got with id's committed golden file.
func checkGolden(t *testing.T, id, axis string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", id+".golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: %s output differs from %s\n--- got ---\n%s--- want ---\n%s", id, axis, path, got, want)
	}
}

func TestGoldenConformance(t *testing.T) {
	if raceEnabled {
		t.Skip("compute-bound golden regeneration exceeds the package timeout under -race; CI runs it in a dedicated race-free job")
	}
	// The reference: one serial engine on a memory-only store, shared
	// across ids as a sweep process shares one. These subtests run (and
	// -update writes) before any axis below starts.
	ref := core.NewEngine(core.EngineOptions{Store: memOnlyStore(t)})
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			got := goldenOutput(t, id, 1, ref)
			if *update {
				if err := os.WriteFile(filepath.Join("testdata", id+".golden"), got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			checkGolden(t, id, "serial", got)
		})
	}
	if testing.Short() {
		return
	}
	// Every axis builds its own engines and runs every id on an 8-worker
	// pool; engines share no state, so the axes run in parallel. Each
	// must reproduce the committed bytes.
	axes := []struct {
		name string
		opt  core.EngineOptions
	}{
		// Parallel determinism: result order and seeding are independent
		// of scheduling.
		{"workers-8", core.EngineOptions{Store: memOnlyStore(t)}},
		// The warm snapshot is invisible: a from-scratch build and warmup
		// per run reproduces the same bytes.
		{"reuse-off", core.EngineOptions{Store: memOnlyStore(t), NoReuse: true}},
		// The mid-run checkpoint tree and the in-RAM result cache are
		// invisible: with checkpoints off and no store every chained run
		// simulates from scratch.
		{"checkpoint-off", core.EngineOptions{NoCheckpoints: true}},
	}
	for _, ax := range axes {
		t.Run(ax.name, func(t *testing.T) {
			t.Parallel()
			goldenPass(t, ax.name, core.NewEngine(ax.opt))
		})
	}
	t.Run("store", func(t *testing.T) {
		t.Parallel()
		storeAxis(t)
	})
}

// memOnlyStore opens a store with no directory: the engine's in-RAM result
// cache, as a sweep without -store runs.
func memOnlyStore(t *testing.T) *resultstore.Store {
	t.Helper()
	st, err := resultstore.Open("", resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// goldenPass runs every id on e with 8 workers against its golden file.
func goldenPass(t *testing.T, axis string, e *core.Engine) {
	t.Helper()
	for _, id := range IDs() {
		checkGolden(t, id, axis, goldenOutput(t, id, 8, e))
	}
}

// storeAxis walks the sweep through the on-disk result store, one engine
// per step over one directory. The cold pass (simulating and writing
// back) and the warm pass share one store handle, so the warm pass is
// served from the residency the write-back's Puts created; both reproduce
// the committed bytes, and the warm pass neither misses nor simulates. So do a disabled-memory-tier handle (pure disk
// reads) and a fresh enabled-tier handle (cold memory filling from disk,
// then resident serving) — memory tier on ≡ off ≡ golden. Last, every
// entry is corrupted in place: each Get must quarantine and fall back to
// a cold recompute that still matches.
func storeAxis(t *testing.T) {
	dir := t.TempDir()
	mustOpen := func(opt resultstore.Options) *resultstore.Store {
		t.Helper()
		st, err := resultstore.Open(dir, opt)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	open := func(opt resultstore.Options) *core.Engine {
		return core.NewEngine(core.EngineOptions{Store: mustOpen(opt)})
	}
	written := mustOpen(resultstore.Options{})
	goldenPass(t, "store-on cold", core.NewEngine(core.EngineOptions{Store: written}))
	cold := written.Stats()
	warm := core.NewEngine(core.EngineOptions{Store: written})
	goldenPass(t, "store-on warm", warm)
	s := written.Stats()
	if s.MemHits == cold.MemHits {
		t.Error("store-on warm pass served nothing from the write-back's memory tier")
	}
	if s.Misses != cold.Misses {
		t.Errorf("store-on warm pass missed the store %d times", s.Misses-cold.Misses)
	}
	// Sims counts every run the engine serves: channels, attacks and XY
	// probes alike, so zero means no point of any experiment simulated.
	if n := warm.Counters().Sims; n != 0 {
		t.Errorf("store-on warm pass simulated %d runs, want 0", n)
	}
	goldenPass(t, "memory-tier-off", open(resultstore.Options{MemBytes: -1}))
	memOn := open(resultstore.Options{})
	goldenPass(t, "memory-tier disk-fill", memOn)
	goldenPass(t, "memory-tier resident", memOn)

	// One representative id keeps the corrupt step cheap. The fresh
	// handle models the next process to open the store: its memory tier
	// is cold, so every Get reads the corrupted file (an existing handle's
	// residency would, correctly, keep serving the pristine bytes it
	// wrote).
	corruptStoreEntries(t, dir)
	corrupt := open(resultstore.Options{})
	checkGolden(t, corruptAxisID, "corrupt-store", goldenOutput(t, corruptAxisID, 8, corrupt))
	if corrupt.Store().Stats().Quarantined == 0 {
		t.Error("corrupt-store step quarantined nothing — the corruption never reached Get")
	}
}

// corruptAxisID is the experiment the corrupt-entry fallback step runs on:
// table1's points are XY probes (core.Engine.RunXYProbe), and it is among
// the cheapest sweeps to recompute.
const corruptAxisID = "table1"

// corruptStoreEntries flips the final byte of every entry under dir. It
// touches only key-named files, not the store's index journal.
func corruptStoreEntries(t *testing.T, dir string) {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if _, kerr := resultstore.ParseKey(d.Name()); kerr != nil {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		b[len(b)-1] ^= 0xff
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return err
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("store directory holds no entries to corrupt")
	}
}
