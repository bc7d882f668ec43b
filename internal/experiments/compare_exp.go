package experiments

import (
	"fmt"

	"streamline/internal/attacks"
	"streamline/internal/core"
	"streamline/internal/noise"
	"streamline/internal/payload"
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

// attackRun returns a pure per-run function measuring one synchronous
// baseline attack: mk constructs the attack from the derived seed, and the
// payload derives from the same seed. Metrics are (rate, err%); Data is
// the attack's (name, model) pair for Assemble. desc names the point for
// the Out-level result cache (storedout.go) — attacks never reach
// Engine.Run, so this is their only store path; the bit count is appended
// here so callers cannot forget it.
func (o Opts) attackRun(desc string, mk func(seed uint64) (attacks.Attack, error), bits int) func(int, uint64) (Out, error) {
	return o.storedRun(fmt.Sprintf("%s bits=%d", desc, bits), func(rep int, seed uint64) (Out, error) {
		a, err := mk(seed)
		if err != nil {
			return Out{}, err
		}
		res, err := a.Run(payload.Random(seed, bits))
		if err != nil {
			return Out{}, err
		}
		return Out{
			Metrics: []float64{res.BitRateKBps, res.Errors.Rate() * 100},
			Data:    [2]string{a.Name(), a.Model()},
		}, nil
	})
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
			Run: o.attackRun(fmt.Sprintf("fig11 flush+reload window=%d jitter=600", w), func(seed uint64) (attacks.Attack, error) {
				a, err := attacks.NewFlushReload(w, seed)
				if err != nil {
					return nil, err
				}
				// Figure 11 measures the unoptimized tutorial
				// implementation (see the paper's caveat); its
				// synchronization is looser.
				a.SetAlignJitter(600)
				return a, nil
			}, bits),
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
	mk := []struct {
		name string
		mk   func(seed uint64) (attacks.Attack, error)
	}{
		{"take-a-way", func(s uint64) (attacks.Attack, error) { return attacks.NewTakeAway(0, 0, s) }},
		{"flush+flush", func(s uint64) (attacks.Attack, error) { return attacks.NewFlushFlush(0, s) }},
		{"prime+probe(l1)", func(s uint64) (attacks.Attack, error) { return attacks.NewPrimeProbeL1(0, s) }},
		{"flush+reload", func(s uint64) (attacks.Attack, error) { return attacks.NewFlushReload(0, s) }},
		{"prime+probe(llc)", func(s uint64) (attacks.Attack, error) { return attacks.NewPrimeProbeLLC(0, s) }},
	}
	var points []Point
	for i, f := range mk {
		points = append(points, Point{
			Label: fmt.Sprintf("baseline %d", i),
			Run:   o.attackRun("table6 "+f.name, f.mk, bits),
		})
	}
	// Thrash+Reload: tiny payload, each bit thrashes the LLC.
	points = append(points, Point{
		Label: "thrash+reload",
		Reps:  1,
		Run: o.attackRun("table6 thrash+reload", func(s uint64) (attacks.Attack, error) {
			return attacks.NewThrashReload(s)
		}, trBits),
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
			for i := range mk {
				nm := res[i][0].Data.([2]string)
				t.Rows = append(t.Rows, []string{nm[0], nm[1],
					kbps(summarize(res[i], 0)), pct(summarize(res[i], 1))})
			}
			tr := res[len(mk)][0]
			trName := tr.Data.([2]string)
			t.Rows = append(t.Rows, []string{trName[0], trName[1],
				fmt.Sprintf("%.0f bits/s", tr.Metrics[0]*8192),
				fmt.Sprintf("%.2f%%", tr.Metrics[1])})
			sl := res[len(mk)+1]
			t.Rows = append(t.Rows, []string{"streamline (this work)", "cross-core",
				kbps(summarize(sl, cmRate)), pct(summarize(sl, cmErr))})
			return t, nil
		},
	}, nil
}
