package experiments

import (
	"fmt"

	"streamline/internal/core"
	"streamline/internal/params"
)

// SMTStreamlineConfig returns Streamline in the hyper-threading model of
// Section 6: sender and receiver are SMT siblings on one core and the
// channel targets the shared L2 instead of the LLC. The shared array is a
// few times the L2 size (so transmission thrashes the L2), the decode
// threshold sits between the L2-hit and LLC-hit latencies, and the lag,
// start, and synchronization constants scale down with the much smaller
// buffer.
func SMTStreamlineConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Machine = params.SkylakeE3()
	cfg.SameCore = true
	cfg.ReceiverCore = cfg.SenderCore
	cfg.ArraySize = 1 << 20 // 4x the 256 KB L2
	cfg.ThresholdOverride = (cfg.Machine.Lat.L2Hit + cfg.Machine.Lat.LLCHit) / 2
	cfg.TrailingLag = 800
	cfg.SyncPeriod = 10000
	cfg.SyncLead = 1000
	cfg.DelayedStartBits = 800
	cfg.WarmupBytes = 64 << 10
	return cfg
}

// planSMT compares the default cross-core channel with the same-core
// hyper-threaded variant (Section 6). The same-core variant has no DRAM
// access in its loop at all — misses are LLC hits — so its bit period is
// shorter, but its decision margin (L2 vs LLC latency) and its buffering
// capacity (the L2) are far smaller.
func planSMT(o Opts) (*Plan, error) {
	bits := 400000
	if o.Quick {
		bits = 150000
	}
	variants := []struct {
		name string
		mk   func() core.Config
	}{
		{"cross-core (LLC)", core.DefaultConfig},
		{"same-core SMT (L2)", SMTStreamlineConfig},
	}
	var points []Point
	for _, v := range variants {
		points = append(points, Point{
			Label: v.name,
			Run: o.channelRun(func(int, uint64) core.Config {
				return v.mk()
			}, bits),
		})
	}
	return &Plan{
		Points: points,
		Assemble: func(res [][]Out) (*Table, error) {
			t := &Table{
				ID:     "smt",
				Title:  "Cross-core (LLC) vs hyper-threaded same-core (L2) Streamline",
				Header: []string{"variant", "bit-rate", "bit-error-rate", "max gap (bits)"},
				Notes: []string{
					"Section 6: on SMT siblings the L2 is the suitable target; a smaller array suffices but the hit-vs-miss margin shrinks",
				},
			}
			for i, v := range variants {
				t.Rows = append(t.Rows, []string{
					v.name,
					kbps(summarize(res[i], cmRate)),
					pct(summarize(res[i], cmErr)),
					fmt.Sprintf("%.0f", summarize(res[i], cmGap).Mean),
				})
			}
			return t, nil
		},
	}, nil
}
