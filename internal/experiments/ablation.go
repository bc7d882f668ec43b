package experiments

import (
	"fmt"

	"streamline/internal/core"
	"streamline/internal/payload"
)

// planAblationEncoding contrasts the naive channel encoding with the PRNG
// modulation of Section 3.2 on biased payloads (the Figure 4 vs Figure 5
// story). One single-rep point per (bias, encoding) cell.
func planAblationEncoding(o Opts) (*Plan, error) {
	n := 400000
	if o.Quick {
		n = 200000
	}
	biases := []float64{0.1, 0.5, 0.9}
	encodings := []bool{false, true}
	var points []Point
	for _, ones := range biases {
		for _, modulate := range encodings {
			points = append(points, Point{
				Label: fmt.Sprintf("ones=%.1f modulate=%v", ones, modulate),
				Reps:  1,
				Run: func(rep int, seed uint64) (Out, error) {
					cfg := core.DefaultConfig()
					cfg.Modulate = modulate
					cfg.SyncPeriod = 0
					cfg.Seed = seed
					res, err := o.Engine.Run(cfg, payload.Biased(seed^0xb1a5, n, ones))
					if err != nil {
						return Out{}, err
					}
					return Out{Metrics: []float64{res.Errors.Rate() * 100}}, nil
				},
			})
		}
	}
	return &Plan{
		Points: points,
		Assemble: func(res [][]Out) (*Table, error) {
			t := &Table{
				ID:     "ablation-encoding",
				Title:  "Naive vs PRNG channel encoding on biased payloads",
				Header: []string{"payload bias (ones)", "naive encoding", "PRNG encoding"},
				Notes: []string{
					"naive encoding lets the payload skew sender/receiver rates: many-0s -> receiver overtakes; many-1s -> sender laps the cache",
				},
			}
			for bi, ones := range biases {
				row := []string{fmt.Sprintf("%.0f%%", ones*100)}
				for ei := range encodings {
					row = append(row, fmt.Sprintf("%.2f%%", res[bi*2+ei][0].Metrics[0]))
				}
				t.Rows = append(t.Rows, row)
			}
			return t, nil
		},
	}, nil
}

// planAblationTrailing isolates the replacement-fooling trailing accesses
// (Section 3.3.2) at a held gap.
func planAblationTrailing(o Opts) (*Plan, error) {
	n := 200000
	lags := []int{5000, 0}
	var points []Point
	for _, lag := range lags {
		points = append(points, Point{
			Label: fmt.Sprintf("lag=%d", lag),
			Run: o.channelRun(func(int, uint64) core.Config {
				cfg := core.DefaultConfig()
				cfg.SyncPeriod = 0
				cfg.GapClamp = 30000
				cfg.WarmupBytes = 0
				cfg.TrailingLag = lag
				return cfg
			}, n),
		})
	}
	return &Plan{
		Points: points,
		Assemble: func(res [][]Out) (*Table, error) {
			t := &Table{
				ID:     "ablation-trailing",
				Title:  "Trailing replacement-fooling accesses on/off at a held 30k-bit gap",
				Header: []string{"trailing accesses", "0->1 error rate"},
			}
			for i, lag := range lags {
				name := fmt.Sprintf("on (lag %d)", lag)
				if lag == 0 {
					name = "off"
				}
				t.Rows = append(t.Rows, []string{name, pct(summarize(res[i], cmZO))})
			}
			return t, nil
		},
	}, nil
}

// planAblationRateLimit isolates the sender's rdtscp throttle
// (Section 3.4.1).
func planAblationRateLimit(o Opts) (*Plan, error) {
	n := 200000
	limits := []bool{true, false}
	var points []Point
	for _, limit := range limits {
		points = append(points, Point{
			Label: fmt.Sprintf("ratelimit=%v", limit),
			Reps:  1,
			Run: o.channelRun(func(int, uint64) core.Config {
				cfg := core.DefaultConfig()
				cfg.RateLimitSender = limit
				cfg.SyncPeriod = 0
				return cfg
			}, n),
		})
	}
	return &Plan{
		Points: points,
		Assemble: func(res [][]Out) (*Table, error) {
			t := &Table{
				ID:     "ablation-ratelimit",
				Title:  "Sender rate-limiting rdtscp on/off (no synchronization)",
				Header: []string{"rate limit", "max gap (bits)", "error rate"},
			}
			for i, limit := range limits {
				name := "on"
				if !limit {
					name = "off"
				}
				t.Rows = append(t.Rows, []string{name,
					fmt.Sprintf("%.0f", res[i][0].Metrics[cmGap]),
					fmt.Sprintf("%.2f%%", res[i][0].Metrics[cmErr])})
			}
			return t, nil
		},
	}, nil
}

// planAblationReplacement sweeps the LLC replacement policy (the Section 7
// random-replacement mitigation appears as the "random" row).
func planAblationReplacement(o Opts) (*Plan, error) {
	n := 400000
	if o.Quick {
		n = 200000
	}
	policies := []struct{ label, policy string }{
		{"skylake (srrip+distant-mix)", "skylake"},
		{"srrip", "srrip"},
		{"brrip", "brrip"},
		{"drrip", "drrip"},
		{"lru", "lru"},
		{"random", "random"},
	}
	var points []Point
	for _, p := range policies {
		points = append(points, Point{
			Label: p.label,
			Run: o.channelRun(func(int, uint64) core.Config {
				cfg := core.DefaultConfig()
				cfg.LLCPolicy = p.policy
				return cfg
			}, n),
		})
	}
	return &Plan{
		Points: points,
		Assemble: func(res [][]Out) (*Table, error) {
			t := &Table{
				ID:     "ablation-replacement",
				Title:  "Streamline error-rate under different LLC replacement policies",
				Header: []string{"LLC policy", "error rate"},
				Notes: []string{
					"random replacement adds noise but does not break the channel (Section 7)",
				},
			}
			for i, p := range policies {
				t.Rows = append(t.Rows, []string{p.label, pct(summarize(res[i], cmErr))})
			}
			return t, nil
		},
	}, nil
}

// planAblationPrefetcher turns the hardware prefetchers off to verify the
// channel does not depend on them (and to quantify the residual stride
// leak when they are on).
func planAblationPrefetcher(o Opts) (*Plan, error) {
	n := 400000
	if o.Quick {
		n = 200000
	}
	states := []bool{false, true}
	var points []Point
	for _, disable := range states {
		points = append(points, Point{
			Label: fmt.Sprintf("disable=%v", disable),
			Run: o.channelRun(func(int, uint64) core.Config {
				cfg := core.DefaultConfig()
				cfg.DisablePrefetch = disable
				return cfg
			}, n),
		})
	}
	return &Plan{
		Points: points,
		Assemble: func(res [][]Out) (*Table, error) {
			t := &Table{
				ID:     "ablation-prefetcher",
				Title:  "Streamline error-rate with hardware prefetchers on/off",
				Header: []string{"prefetchers", "error rate", "raw 1->0"},
			}
			for i, disable := range states {
				name := "on"
				if disable {
					name = "off"
				}
				t.Rows = append(t.Rows, []string{name,
					pct(summarize(res[i], cmErr)), pct(summarize(res[i], cmOZ))})
			}
			return t, nil
		},
	}, nil
}

// planAblationHugePages demonstrates the methodology requirement of
// Section 4.1: without transparent huge pages, the 4 KB-page walks ride on
// the receiver's timed loads and corrupt decoding.
func planAblationHugePages(o Opts) (*Plan, error) {
	n := 400000
	if o.Quick {
		n = 150000
	}
	states := []bool{true, false}
	var points []Point
	for _, huge := range states {
		points = append(points, Point{
			Label: fmt.Sprintf("huge=%v", huge),
			Run: o.channelRun(func(int, uint64) core.Config {
				cfg := core.DefaultConfig()
				cfg.HugePages = huge
				return cfg
			}, n),
		})
	}
	return &Plan{
		Points: points,
		Assemble: func(res [][]Out) (*Table, error) {
			t := &Table{
				ID:     "ablation-hugepages",
				Title:  "Transparent huge pages on/off (the Section 4.1 methodology requirement)",
				Header: []string{"pages", "bit-rate", "error rate", "raw 0->1"},
				Notes: []string{
					"with 4 KB pages a page walk delays the first timed load of every page-visit, reading LLC hits as misses",
				},
			}
			for i, huge := range states {
				name := "2 MB huge pages (paper setup)"
				if !huge {
					name = "4 KB pages"
				}
				t.Rows = append(t.Rows, []string{name,
					kbps(summarize(res[i], cmRate)),
					pct(summarize(res[i], cmErr)),
					pct(summarize(res[i], cmZO))})
			}
			return t, nil
		},
	}, nil
}
