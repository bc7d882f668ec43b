package experiments

import (
	"fmt"

	"streamline/internal/attacks"
	"streamline/internal/core"
	"streamline/internal/defense"
	"streamline/internal/hier"
	"streamline/internal/params"
	"streamline/internal/stats"
)

// planDefMatrix crosses every implemented cross-core covert channel with
// the defense arsenal: nothing, random-fill noise injection, CacheBar-style
// dynamic way quotas with copy-on-access denial, and DAWG-style static way
// partitioning. Each cell reports the channel's achieved bit-rate, its
// Shannon capacity at the measured raw error rate (what any coding could
// still extract), and the stealth score the counter-based detector pipeline
// assigns to the run (1.0 = never flagged at any observation scale).
//
// The matrix makes the defense trade-offs of Section 7 quantitative in one
// table: noise injection degrades Streamline but leaves it above the
// flush-based attacks, while isolation (quota with copy-on-access, or
// partitioning) drives its capacity to zero.
func planDefMatrix(o Opts) (*Plan, error) {
	atkBits := 60000
	slBits := 400000
	if o.Quick {
		atkBits = 12000
		slBits = 150000
	}
	if o.Full {
		atkBits = 200000
		slBits = 2000000
	}
	defs := defenseSpecs()
	atks := []string{"streamline", "flush+reload", "flush+flush", "prime+probe(llc)", "async-prime+probe"}
	var points []Point
	for _, a := range atks {
		for _, d := range defs {
			var run func(int, uint64) (Out, error)
			if a == "streamline" {
				run = defmatrixStreamlineRun(o.Engine, d, slBits)
			} else {
				run = defmatrixAttackRun(o.Engine, a, d, atkBits)
			}
			points = append(points, Point{
				Label: fmt.Sprintf("%s vs %s", a, d.name),
				Reps:  1,
				Run:   run,
			})
		}
	}
	return &Plan{
		Points: points,
		Assemble: func(res [][]Out) (*Table, error) {
			t := &Table{
				ID:    "defmatrix",
				Title: "Defense x attack matrix: bit-rate, capacity, and stealth per cell",
				Header: []string{"attack", "defense", "bit-rate", "capacity",
					"raw-error", "stealth"},
				Notes: []string{
					"capacity = raw rate x BSC capacity at the raw error rate: the ceiling for any coding layered on the channel",
					"stealth = 1 - detection probability across counter-window scales 1x/4x/16x (threshold + miss-variance classifiers)",
					"quota = CacheBar-style per-core way budgets (min 2, rebalanced every 4096 lookups) with copy-on-access denial",
					"partition = DAWG-style static 8+8 way isolation between the attacker's cores",
				},
			}
			i := 0
			for _, a := range atks {
				for _, d := range defs {
					m := res[i][0].Metrics
					t.Rows = append(t.Rows, []string{
						a, d.name,
						fmt.Sprintf("%.0f KB/s", m[dmRate]),
						fmt.Sprintf("%.0f KB/s", m[dmCap]),
						fmt.Sprintf("%.1f%%", m[dmErr]),
						fmt.Sprintf("%.2f", m[dmStealth]),
					})
					i++
				}
			}
			return t, nil
		},
	}, nil
}

// Metric indexes of a defmatrix cell.
const (
	dmRate    = iota // raw channel bit-rate, KB/s
	dmCap            // Shannon capacity bound, KB/s
	dmErr            // raw bit-error rate, percent
	dmStealth        // stealth score in [0, 1]
)

// defMonitorWindow is the performance-counter observation window in cycles:
// long enough that a window spans hundreds of bit periods, short enough
// that every cell collects a multi-window trace at Quick scale.
const defMonitorWindow = 100_000

// defQuota returns the matrix's CacheBar-style configuration: dynamic
// budgets with a two-way floor, demand-driven rebalancing, and
// copy-on-access denial of cross-domain hits.
func defQuota() *hier.QuotaConfig {
	return &hier.QuotaConfig{MinWays: 2, RebalancePeriod: 4096, CopyOnAccess: true}
}

// defenseSpec is one column of the matrix: the defense's values, which
// apply to Streamline's Config and to an attack's Spec alike.
type defenseSpec struct {
	name          string
	randomFill    float64
	quota         bool
	partitionWays int
}

func defenseSpecs() []defenseSpec {
	return []defenseSpec{
		{name: "none"},
		{name: "noise", randomFill: 0.25},
		{name: "quota", quota: true},
		{name: "partition", partitionWays: 8},
	}
}

// channel applies the defense to a Streamline run, whose sender and
// receiver cores land in separate trust domains under partitioning.
func (d defenseSpec) channel(cfg *core.Config) {
	cfg.RandomFillProb = d.randomFill
	if d.quota {
		cfg.Quota = defQuota()
	}
	cfg.PartitionWays = d.partitionWays
}

// attack applies the defense to a baseline attack.
func (d defenseSpec) attack(s *attacks.Spec) {
	s.RandomFillProb = d.randomFill
	if d.quota {
		s.Quota = defQuota()
	}
	if d.partitionWays > 0 {
		// The attacks pin sender/receiver to cores 0/1; those two land in
		// separate partitions (the idle cores share the sender's).
		s.PartitionWays = d.partitionWays
		s.CoreDomains = []int{0, 1, 0, 0}
	}
}

// defmatrixStreamlineRun measures Streamline under one defense, with the
// counter monitor streaming windows out of the run for the stealth score.
func defmatrixStreamlineRun(e *core.Engine, d defenseSpec, bits int) func(int, uint64) (Out, error) {
	return func(rep int, seed uint64) (Out, error) {
		cfg := core.DefaultConfig()
		cfg.Seed = seed
		cfg.CounterWindow = defMonitorWindow
		d.channel(&cfg)
		res, err := e.RunRandom(cfg, seed^0xdef, bits)
		if err != nil {
			return Out{}, err
		}
		stealth := defense.StealthScore(res.Counters, defMonitorWindow,
			[]int{cfg.SenderCore, cfg.ReceiverCore},
			defense.DefaultClassifiers(cfg.Machine.Cores), nil)
		return Out{Metrics: []float64{
			res.ChannelKBps,
			res.CapacityKBps(),
			res.RawErrors.Rate() * 100,
			stealth,
		}}, nil
	}
}

// defmatrixAttackRun measures one baseline attack under one defense, with
// the counter monitor on; the stealth score is computed over the
// attacker's two cores.
func defmatrixAttackRun(e *core.Engine, kind string, d defenseSpec, bits int) func(int, uint64) (Out, error) {
	return func(rep int, seed uint64) (Out, error) {
		s := attacks.Spec{Kind: kind, Seed: seed, CounterWindow: defMonitorWindow}
		d.attack(&s)
		res, err := e.RunAttack(s, seed, bits)
		if err != nil {
			return Out{}, err
		}
		stealth := defense.StealthScore(res.Counters, defMonitorWindow,
			[]int{0, 1}, defense.DefaultClassifiers(params.SkylakeE3().Cores), nil)
		errRate := res.Errors.Rate()
		return Out{Metrics: []float64{
			res.BitRateKBps,
			res.BitRateKBps * stats.BSCCapacity(errRate),
			errRate * 100,
			stealth,
		}}, nil
	}
}
