package experiments

import (
	"fmt"

	"streamline/internal/attacks"
	"streamline/internal/core"
	"streamline/internal/params"
)

// ARMStreamlineConfig returns Streamline tuned for the ARM Cortex-A72
// platform: the 2 MB last-level cache buffers far fewer in-flight bits
// than Skylake's 8 MB, so the shared array, trailing lag, and
// synchronization period all shrink proportionally.
func ARMStreamlineConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Machine = params.ARMCortexA72()
	cfg.ArraySize = 16 << 20 // 8x the 2 MB LLC
	cfg.TrailingLag = 1500   // past the small private caches, before LLC eviction
	cfg.SyncPeriod = 25000
	cfg.SyncLead = 2000
	cfg.DelayedStartBits = 1500
	cfg.WarmupBytes = 256 << 10
	return cfg
}

// planUniversality demonstrates the paper's portability claim
// (Sections 2.3.2 and 2.4): flush-based attacks require an unprivileged
// flush instruction and are impossible on ARM, while Streamline — relying
// only on shared memory and hit/miss timing — runs on both ISAs (even its
// coarse synchronization channel falls back to eviction-based resets).
func planUniversality(o Opts) (*Plan, error) {
	bits := 400000
	if o.Quick {
		bits = 150000
	}
	const baselineBits = 40000

	// Flush-based baselines: measured on x86. Each run also asks Build
	// for the attack on ARM, which refuses before building anything (no
	// unprivileged flush), so the verdict costs nothing on a served pass.
	baselines := []string{"flush+reload", "flush+flush"}
	var points []Point
	for _, kind := range baselines {
		points = append(points, Point{
			Label: kind,
			Reps:  1,
			Run: func(_ int, seed uint64) (Out, error) {
				res, err := o.Engine.RunAttack(attacks.Spec{Kind: kind, Seed: seed}, seed, baselineBits)
				if err != nil {
					return Out{}, err
				}
				armVerdict := "unexpectedly available"
				if _, err := attacks.Build(attacks.Spec{Kind: kind, Machine: params.ARMCortexA72(), Seed: seed}); err != nil {
					armVerdict = "unavailable (no unprivileged flush)"
				}
				return Out{
					Metrics: []float64{res.BitRateKBps, res.Errors.Rate() * 100},
					Data:    armVerdict,
				}, nil
			},
		})
	}

	// Prime+Probe works everywhere (no flushes, no shared memory) but
	// stays slow; include it for contrast. One point per platform.
	ppMachines := []*params.Machine{nil, params.ARMCortexA72()}
	for i, m := range ppMachines {
		points = append(points, Point{
			Label: fmt.Sprintf("prime+probe platform %d", i),
			Reps:  1,
			Run:   o.attackRun(attacks.Spec{Kind: "prime+probe(llc)", Machine: m}, baselineBits),
		})
	}

	// Streamline on both platforms.
	slConfigs := []func() core.Config{core.DefaultConfig, ARMStreamlineConfig}
	for i, mkCfg := range slConfigs {
		points = append(points, Point{
			Label: fmt.Sprintf("streamline platform %d", i),
			Run: o.channelRun(func(int, uint64) core.Config {
				return mkCfg()
			}, bits),
		})
	}

	return &Plan{
		Points: points,
		Assemble: func(res [][]Out) (*Table, error) {
			t := &Table{
				ID:     "universality",
				Title:  "Attack availability and throughput across ISAs",
				Header: []string{"attack", "Intel Skylake (x86)", "ARM Cortex-A72 (ARMv8)"},
				Notes: []string{
					"flush attacks need unprivileged clflush: unavailable on ARMv8 by default, absent on ARMv7 (Section 2.3.2)",
					"Streamline needs only shared memory and cache-hit/miss timing: it runs on both",
				},
			}
			point := func(out Out) string {
				return fmt.Sprintf("%.0f KB/s @ %.2f%%", out.Metrics[0], out.Metrics[1])
			}
			for i, kind := range baselines {
				out := res[i][0]
				t.Rows = append(t.Rows, []string{kind, point(out), out.Data.(string)})
			}
			pp := len(baselines)
			t.Rows = append(t.Rows, []string{"prime+probe(llc)",
				point(res[pp][0]), point(res[pp+1][0])})
			sl := pp + len(ppMachines)
			row := []string{"streamline"}
			for i := range slConfigs {
				row = append(row, fmt.Sprintf("%.0f KB/s @ %.2f%%",
					summarize(res[sl+i], cmRate).Mean, summarize(res[sl+i], cmErr).Mean))
			}
			t.Rows = append(t.Rows, row)
			return t, nil
		},
	}, nil
}
