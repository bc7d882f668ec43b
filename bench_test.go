package streamline

import (
	"fmt"
	"testing"

	"streamline/internal/core"
	"streamline/internal/experiments"
	"streamline/internal/payload"
	"streamline/internal/runner"
)

// The experiment benchmarks regenerate each of the paper's tables and
// figures once per iteration (at smoke-test scale; run `go run ./cmd/sweep
// -exp <id>` for publication-scale numbers with confidence intervals).
// Runs fan out across the internal/runner worker pool at GOMAXPROCS;
// results are bit-identical at any worker count. Every iteration shares
// the package engine, so iterations after the first clone its warm
// snapshots, as a sweep process does.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, experiments.Opts{Seed: uint64(i + 1), Quick: true, Engine: engine}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunnerScaling measures the worker-pool's throughput on a fixed
// batch of channel runs at several pool sizes. On an N-core machine the
// expected speedup from workers=1 to workers=N is close to N (the runs are
// CPU-bound and independent); the decoded results are identical regardless.
func BenchmarkRunnerScaling(b *testing.B) {
	const batch = 8
	specs := make([]runner.Spec, batch)
	for i := range specs {
		specs[i] = runner.Spec{Experiment: "bench-scaling", Rep: i}
	}
	run := func(spec runner.Spec, seed uint64) (float64, error) {
		cfg := core.DefaultConfig()
		cfg.Seed = seed
		res, err := engine.Run(cfg, payload.Random(seed^0xbead, 40000))
		if err != nil {
			return 0, err
		}
		return res.Errors.Rate(), nil
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := runner.Execute(specs, nil, run, runner.Options{Root: 1, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable1 regenerates Table 1 (prefetcher-fooling miss-rate matrix).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFig6 regenerates Figure 6 (error vs sender-receiver gap).
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7 regenerates Figure 7 (gap vs bits transmitted).
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig9 regenerates Figure 9 (bit-rate/error vs payload size).
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkTable2 regenerates Table 2 (error breakdown by direction).
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkTable3 regenerates Table 3 (ECC on/off).
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkTable4 regenerates Table 4 (shared-array-size sensitivity).
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkTable5 regenerates Table 5 (synchronization-period sensitivity).
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }

// BenchmarkFig10 regenerates Figure 10 (noise resilience under stress-ng).
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11 regenerates Figure 11 (Flush+Reload window sweep).
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkTable6 regenerates Table 6 (cross-attack comparison).
func BenchmarkTable6(b *testing.B) { benchExperiment(b, "table6") }

// Ablation benchmarks for the design choices DESIGN.md calls out.

// BenchmarkAblationEncoding contrasts naive vs PRNG channel encoding.
func BenchmarkAblationEncoding(b *testing.B) { benchExperiment(b, "ablation-encoding") }

// BenchmarkAblationTrailing isolates the trailing replacement-fooling accesses.
func BenchmarkAblationTrailing(b *testing.B) { benchExperiment(b, "ablation-trailing") }

// BenchmarkAblationRateLimit isolates the sender's rdtscp throttle.
func BenchmarkAblationRateLimit(b *testing.B) { benchExperiment(b, "ablation-ratelimit") }

// BenchmarkAblationReplacement sweeps LLC replacement policies.
func BenchmarkAblationReplacement(b *testing.B) { benchExperiment(b, "ablation-replacement") }

// BenchmarkAblationPrefetcher toggles the hardware prefetchers.
func BenchmarkAblationPrefetcher(b *testing.B) { benchExperiment(b, "ablation-prefetcher") }

// BenchmarkStreamlineChannel measures simulator throughput for the default
// channel and reports the simulated covert-channel metrics alongside.
func BenchmarkStreamlineChannel(b *testing.B) {
	n := b.N
	if n < 100000 {
		n = 100000
	}
	bits := payload.Random(1, n)
	cfg := core.DefaultConfig()
	b.ResetTimer()
	res, err := engine.Run(cfg, bits)
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(res.BitRateKBps, "sim-KB/s")
	b.ReportMetric(res.Errors.Rate()*100, "sim-err-%")
	b.ReportMetric(res.BitPeriodCycles(), "sim-cycles/bit")
}

// BenchmarkBaselines measures one epoch of each synchronous baseline.
func BenchmarkBaselines(b *testing.B) {
	for _, name := range []string{"flush+reload", "flush+flush", "prime+probe(llc)", "take-a-way"} {
		b.Run(name, func(b *testing.B) {
			a, err := Baseline(name, 1)
			if err != nil {
				b.Fatal(err)
			}
			bits := payload.Random(1, b.N+1)
			b.ResetTimer()
			res, err := a.Run(bits)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(res.BitRateKBps, "sim-KB/s")
		})
	}
}

// Extension benchmarks (beyond the paper's own artifacts).

// BenchmarkUniversality regenerates the cross-ISA availability table
// (Sections 2.3.2/2.4: flushless means ARM-capable).
func BenchmarkUniversality(b *testing.B) { benchExperiment(b, "universality") }

// BenchmarkSMT regenerates the hyper-threaded same-core variant comparison
// (Section 6).
func BenchmarkSMT(b *testing.B) { benchExperiment(b, "smt") }

// BenchmarkMitigations regenerates the Section 7 defenses study.
func BenchmarkMitigations(b *testing.B) { benchExperiment(b, "mitigations") }

// BenchmarkAsyncPP regenerates the asynchronous Prime+Probe study
// (Section 5.2 future work, realized).
func BenchmarkAsyncPP(b *testing.B) { benchExperiment(b, "asyncpp") }

// BenchmarkAblationHugePages regenerates the huge-pages methodology
// ablation (Section 4.1).
func BenchmarkAblationHugePages(b *testing.B) { benchExperiment(b, "ablation-hugepages") }
