package lifecycle_test

import (
	"testing"

	"streamline/internal/analysis"
	"streamline/internal/analysis/analysistest"
	"streamline/internal/analysis/lifecycle"
)

func TestLifecycle(t *testing.T) {
	analysistest.Run(t, lifecycle.Analyzer, "bad", "good", "allow")
}

// TestSimulatorLifecycleCovered runs the analyzer over the simulator
// packages whose state is cloned, reseeded or restored, so a lifecycle
// method that misses a field fails the ordinary test suite, not only a
// detlint run.
func TestSimulatorLifecycleCovered(t *testing.T) {
	pkgs, err := analysis.Load("../../..", "./internal/cache", "./internal/dram",
		"./internal/hier", "./internal/prefetch", "./internal/rng", "./internal/tlb")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 6 {
		t.Fatalf("loaded %d packages, want 6", len(pkgs))
	}
	for _, pkg := range pkgs {
		diags, err := analysis.Run(pkg, []*analysis.Analyzer{lifecycle.Analyzer})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}
