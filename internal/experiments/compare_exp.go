package experiments

import (
	"fmt"

	"streamline/internal/attacks"
	"streamline/internal/core"
	"streamline/internal/noise"
)

// planFig10 regenerates Figure 10: Streamline's error rate while each
// stress-ng-style cache stressor co-runs on an adjacent core, for
// synchronization periods of 200000 and 50000 bits. One point per
// (kernel, period) cell.
func planFig10(o Opts) (*Plan, error) {
	// Noise runs are the slowest experiment (the stressor multiplies the
	// simulated memory traffic several-fold), so sizes are kept modest.
	n := 500000
	if o.Quick {
		n = 200000
	}
	if o.Full {
		n = 10000000
	}
	reps := o.runs()
	if o.Runs == 0 && !o.Quick {
		reps = 2
	}
	kernels := noise.StressNG(8 << 20)
	kernels = append(kernels, noise.Browser(8<<20))
	periods := []int{200000, 50000}
	var points []Point
	for _, k := range kernels {
		for _, period := range periods {
			points = append(points, Point{
				Label: fmt.Sprintf("%s sync=%d", k.Name, period),
				Reps:  reps,
				Run: o.channelRun(func(int, uint64) core.Config {
					cfg := core.DefaultConfig()
					cfg.SyncPeriod = period
					cfg.Noise = []noise.Config{k}
					return cfg
				}, n),
			})
		}
	}
	return &Plan{
		Points: points,
		Assemble: func(res [][]Out) (*Table, error) {
			t := &Table{
				ID:     "fig10",
				Title:  "Error-rate under co-running stress-ng cache stressors",
				Header: []string{"co-runner", "sync 200k", "sync 50k", "bit-rate (sync 50k)"},
				Notes: []string{
					"paper: worst case ~15% at sync 200k vs <=0.8% at sync 50k; bit-rate dips to 1500-1800 KB/s",
				},
			}
			for ki, k := range kernels {
				row := []string{k.Name}
				for pi := range periods {
					row = append(row, pct(summarize(res[ki*len(periods)+pi], cmErr)))
				}
				row = append(row, kbps(summarize(res[ki*len(periods)+1], cmRate)))
				t.Rows = append(t.Rows, row)
			}
			return t, nil
		},
	}, nil
}

// attackRun returns a pure per-run function measuring one baseline
// attack: spec under the derived seed, transmitting a payload from the
// same seed, served by Engine.RunAttack. Metrics are (rate, err%).
func (o Opts) attackRun(spec attacks.Spec, bits int) func(int, uint64) (Out, error) {
	return func(_ int, seed uint64) (Out, error) {
		s := spec
		s.Seed = seed
		res, err := o.Engine.RunAttack(s, seed, bits)
		if err != nil {
			return Out{}, err
		}
		return Out{Metrics: []float64{res.BitRateKBps, res.Errors.Rate() * 100}}, nil
	}
}

// planFig11 regenerates Figure 11: Flush+Reload's bit-error-rate as its
// bit period shrinks from 32768 to 256 cycles, with Streamline's operating
// point for comparison.
func planFig11(o Opts) (*Plan, error) {
	bits := 50000
	if o.Quick {
		bits = 10000
	}
	windows := []uint64{32768, 16384, 8192, 4096, 2048, 1600, 1024, 768, 512, 256}
	var points []Point
	for _, w := range windows {
		points = append(points, Point{
			Label: fmt.Sprintf("window=%d", w),
			// Figure 11 measures the unoptimized tutorial implementation
			// (see the paper's caveat); its synchronization is looser.
			Run: o.attackRun(attacks.Spec{Kind: "flush+reload", Window: w, AlignJitter: 600}, bits),
		})
	}
	points = append(points, Point{
		Label: "streamline",
		Run: o.channelRun(func(int, uint64) core.Config {
			return core.DefaultConfig()
		}, 1000000),
	})
	return &Plan{
		Points: points,
		Assemble: func(res [][]Out) (*Table, error) {
			t := &Table{
				ID:     "fig11",
				Title:  "Flush+Reload error-rate vs bit-rate (window sweep) vs Streamline",
				Header: []string{"attack", "window (cycles)", "bit-rate", "error-rate"},
				Notes: []string{
					"paper: F+R stays <1% until ~200 KB/s (2000-cycle windows) then blows past 10%; Streamline: 0.3% at a 265-cycle period",
				},
			}
			for i, w := range windows {
				t.Rows = append(t.Rows, []string{
					"flush+reload (tutorial)", fmt.Sprintf("%d", w),
					kbps(summarize(res[i], 0)), pct(summarize(res[i], 1)),
				})
			}
			sl := res[len(windows)]
			t.Rows = append(t.Rows, []string{
				"streamline", "265 (bit period)",
				kbps(summarize(sl, cmRate)), pct(summarize(sl, cmErr)),
			})
			return t, nil
		},
	}, nil
}

// planTable6 regenerates Table 6: bit-rates and error-rates of all
// implemented covert channels, prior work and Streamline.
func planTable6(o Opts) (*Plan, error) {
	bits := 100000
	if o.Quick {
		bits = 20000
	}
	trBits := 100
	if o.Quick {
		trBits = 20
	}
	kinds := []string{"take-a-way", "flush+flush", "prime+probe(l1)", "flush+reload", "prime+probe(llc)"}
	var points []Point
	for i, k := range kinds {
		points = append(points, Point{
			Label: fmt.Sprintf("baseline %d", i),
			Run:   o.attackRun(attacks.Spec{Kind: k}, bits),
		})
	}
	// Thrash+Reload: tiny payload, each bit thrashes the LLC.
	points = append(points, Point{
		Label: "thrash+reload",
		Reps:  1,
		Run:   o.attackRun(attacks.Spec{Kind: "thrash+reload"}, trBits),
	})
	points = append(points, Point{
		Label: "streamline",
		Run: o.channelRun(func(int, uint64) core.Config {
			return core.DefaultConfig()
		}, 1000000),
	})
	return &Plan{
		Points: points,
		Assemble: func(res [][]Out) (*Table, error) {
			t := &Table{
				ID:     "table6",
				Title:  "Covert-channel comparison (prior attacks vs Streamline)",
				Header: []string{"attack", "model", "bit-rate", "bit-error-rate"},
				Notes: []string{
					"paper: take-a-way 588 KB/s, flush+flush 496, prime+probe(l1) 400, flush+reload 298, prime+probe(llc) 75, streamline 1801",
				},
			}
			for i, k := range kinds {
				t.Rows = append(t.Rows, []string{k, attacks.Model(k),
					kbps(summarize(res[i], 0)), pct(summarize(res[i], 1))})
			}
			tr := res[len(kinds)][0]
			t.Rows = append(t.Rows, []string{"thrash+reload", attacks.Model("thrash+reload"),
				fmt.Sprintf("%.0f bits/s", tr.Metrics[0]*8192),
				fmt.Sprintf("%.2f%%", tr.Metrics[1])})
			sl := res[len(kinds)+1]
			t.Rows = append(t.Rows, []string{"streamline (this work)", "cross-core",
				kbps(summarize(sl, cmRate)), pct(summarize(sl, cmErr))})
			return t, nil
		},
	}, nil
}
