// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 4 and 5) on the simulator: Table 1 (prefetcher
// fooling), Figures 6/7 (gap tolerance and gap growth), Figure 9 and
// Table 2 (bit-rate/error vs payload), Table 3 (ECC), Table 4 (array
// size), Table 5 (sync period), Figure 10 (noise), Figure 11 and Table 6
// (comparison with prior attacks), plus the ablations DESIGN.md calls out.
//
// Each experiment declares a Plan: an ordered list of parameter Points,
// each with a repetition count and a pure per-run function, plus an
// Assemble step that turns the collected runs into a Table. Run flattens
// the plan into (experiment, point, rep) specs and executes them on
// internal/runner's worker pool — every run's seed is derived
// hierarchically from Opts.Seed and the spec alone, and results come back
// in spec order, so a table is bit-identical whether it was computed by
// one worker or sixteen (the golden conformance tests in golden_test.go
// pin this down for every experiment id).
//
// Experiments accept an Opts that scales payload sizes: the defaults
// regenerate every artifact in minutes; Full uses the paper's own payload
// sizes (up to 10^9 bits) and takes hours, exactly like the original
// artifact's 3-4 hour budget.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"streamline/internal/core"
	"streamline/internal/resultstore"
	"streamline/internal/rng"
	"streamline/internal/runner"
	"streamline/internal/stats"
)

// Opts controls experiment scale, parallelism, and reporting.
type Opts struct {
	// Seed is the root seed. Every run's PRNG stream is derived from it
	// hierarchically (root → experiment id → point → repetition); see
	// internal/runner.
	Seed uint64
	// Runs is the number of repetitions feeding each 95% CI (paper: 5).
	// 0 selects 3.
	Runs int
	// Full selects the paper's own payload sizes (up to 10^9 bits).
	Full bool
	// Quick shrinks payloads aggressively for smoke tests and benchmarks.
	Quick bool
	// Progress, when non-nil, receives one line per completed run with
	// its wall time and the sweep completion count.
	Progress io.Writer
	// Workers sets the worker-pool size: 0 selects GOMAXPROCS, 1 runs
	// serially. Results are bit-identical at any value.
	Workers int
	// Engine runs every simulation: channels, baseline attacks and XY
	// probes, each served from its store when it ran before. nil gives
	// each Run or RunBatch call a fresh engine on a memory-only store.
	// Results are bit-identical either way; sharing one engine across
	// calls shares its reuse layers.
	Engine *core.Engine
}

// withEngine returns o with a fresh engine on a memory-only store when
// none is set, so points the experiment repeats are simulated once.
func (o Opts) withEngine() Opts {
	if o.Engine == nil {
		// Cannot fail: default options always enable the memory tier.
		st, _ := resultstore.Open("", resultstore.Options{})
		o.Engine = core.NewEngine(core.EngineOptions{Store: st})
	}
	return o
}

func (o Opts) runs() int {
	if o.Runs > 0 {
		return o.Runs
	}
	if o.Quick {
		return 1
	}
	return 3
}

// payloadSizes returns the payload ladder for Figure 9 / Table 2.
func (o Opts) payloadSizes() []int {
	if o.Quick {
		return []int{200000, 1000000}
	}
	if o.Full {
		return []int{200000, 1000000, 10000000, 100000000, 1000000000}
	}
	return []int{200000, 1000000, 5000000, 10000000}
}

// steadyPayload is the payload used by single-point experiments
// (Tables 3-5, Figure 10). The paper uses 10^8-10^9; the default trades
// one decimal of CI width for a 50x speedup.
func (o Opts) steadyPayload() int {
	if o.Quick {
		return 400000
	}
	if o.Full {
		return 100000000
	}
	return 2000000
}

// Table is a formatted experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Format renders the table as aligned text.
func (t *Table) Format(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// FormatCSV renders the table as RFC-4180-ish CSV (quotes only when a cell
// contains a comma or quote), for downstream plotting.
func (t *Table) FormatCSV(w io.Writer) {
	row := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, ",")
			}
			if strings.ContainsAny(c, ",\"") {
				fmt.Fprintf(w, "%q", c)
			} else {
				fmt.Fprint(w, c)
			}
		}
		fmt.Fprintln(w)
	}
	row(t.Header)
	for _, r := range t.Rows {
		row(r)
	}
}

// Out is the result of one simulated run: a metric vector whose layout the
// experiment's Assemble understands, plus an optional opaque payload for
// trace-style data (gap traces, full channel results).
type Out struct {
	Metrics []float64
	Data    any
}

// Point is one parameter point of an experiment's sweep.
type Point struct {
	// Label describes the point in progress output.
	Label string
	// Reps is the number of repetitions; 0 selects Opts.runs().
	Reps int
	// Run executes one repetition. It must be pure: every random choice
	// derived from seed, no mutation of shared state, so results cannot
	// depend on worker count or scheduling order.
	Run func(rep int, seed uint64) (Out, error)
}

// Plan is an experiment decomposed into independent runs.
type Plan struct {
	// Points is the ordered run list.
	Points []Point
	// Chains declares prefix-sharing structure (see core.ChainSpec): each
	// entry lists point indices in ascending payload order whose runs form
	// a checkpoint chain. Execution adds a per-repetition dependency from
	// each member on its predecessor: a member must not start before the
	// run it forks from has published its boundary. Results are
	// bit-identical either way; chains only shape scheduling.
	Chains [][]int
	// Assemble builds the Table from the collected outputs,
	// res[point][rep], which arrive in deterministic order.
	Assemble func(res [][]Out) (*Table, error)
}

// planner builds an experiment's Plan from Opts.
type planner func(o Opts) (*Plan, error)

// registry maps experiment ids to planners.
var registry = map[string]planner{
	"table1":               planTable1,
	"fig6":                 planFig6,
	"fig7":                 planFig7,
	"fig9":                 planFig9,
	"table2":               planTable2,
	"table3":               planTable3,
	"table4":               planTable4,
	"table5":               planTable5,
	"fig10":                planFig10,
	"fig11":                planFig11,
	"table6":               planTable6,
	"ablation-encoding":    planAblationEncoding,
	"ablation-trailing":    planAblationTrailing,
	"ablation-ratelimit":   planAblationRateLimit,
	"ablation-replacement": planAblationReplacement,
	"ablation-prefetcher":  planAblationPrefetcher,
	"universality":         planUniversality,
	"smt":                  planSMT,
	"mitigations":          planMitigations,
	"asyncpp":              planAsyncPP,
	"ablation-hugepages":   planAblationHugePages,
	"defmatrix":            planDefMatrix,
}

// IDs returns all experiment ids in stable order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Known reports whether id names an experiment.
func Known(id string) bool {
	_, ok := registry[id]
	return ok
}

// Run executes the experiment with the given id on the worker pool.
func Run(id string, o Opts) (*Table, error) {
	o = o.withEngine()
	plan, err := planFor(id, o)
	if err != nil {
		return nil, err
	}
	tabs, err := executePlans([]string{id}, []*Plan{plan}, o)
	if err != nil {
		return nil, err
	}
	return tabs[0], nil
}

// RunBatch executes several experiments through one combined runner plan:
// every plan's specs flatten into a single runner.Execute call, so the
// worker pool, progress hook, and store-counter wiring are checked out once
// for the whole batch instead of once per experiment.
// Each run's seed is derived from (root, experiment id, point, rep) alone
// — never from its position in the combined spec list — so every table is
// bit-identical to a sequential Run of the same id (pinned by
// TestRunBatchMatchesSequential).
func RunBatch(ids []string, o Opts) ([]*Table, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("experiments: empty batch")
	}
	o = o.withEngine()
	seen := make(map[string]bool, len(ids))
	plans := make([]*Plan, len(ids))
	for i, id := range ids {
		if seen[id] {
			return nil, fmt.Errorf("experiments: duplicate experiment %q in batch", id)
		}
		seen[id] = true
		plan, err := planFor(id, o)
		if err != nil {
			return nil, err
		}
		plans[i] = plan
	}
	return executePlans(ids, plans, o)
}

func planFor(id string, o Opts) (*Plan, error) {
	p, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)",
			id, strings.Join(IDs(), ", "))
	}
	return p(o)
}

// executePlans flattens the plans into one spec list, fans it out on the
// runner, and regroups the outputs per plan and point for Assemble. Plans
// that declare chains add per-repetition dependencies along each chain;
// specs are point-major within each plan, so chain dependencies always
// point to earlier indices and the serial schedule is plain spec order. Chains never cross plan boundaries —
// cross-experiment sharing stays content-addressed through the result store
// and the checkpoint tree, which are order-independent.
func executePlans(ids []string, plans []*Plan, o Opts) ([]*Table, error) {
	var specs []runner.Spec
	firsts := make([][]int, len(plans))
	for pl, plan := range plans {
		first := make([]int, len(plan.Points))
		for pi := range plan.Points {
			pt := &plan.Points[pi]
			if pt.Reps <= 0 {
				pt.Reps = o.runs()
			}
			first[pi] = len(specs)
			for r := 0; r < pt.Reps; r++ {
				specs = append(specs, runner.Spec{
					Experiment: ids[pl], Point: pi, Rep: r, Label: pt.Label,
				})
			}
		}
		firsts[pl] = first
	}
	var hook runner.Hook
	if o.Progress != nil {
		hook = runner.Progress(o.Progress)
	}
	byID := make(map[string]*Plan, len(plans))
	for i, id := range ids {
		byID[id] = plans[i]
	}
	run := func(s runner.Spec, seed uint64) (Out, error) {
		return byID[s.Experiment].Points[s.Point].Run(s.Rep, seed)
	}
	ropt := runner.Options{Root: o.Seed, Workers: o.Workers, Hook: hook}
	if st := o.Engine.Store(); st != nil {
		// The progress hook labels each run [hit]/[miss] from these
		// cumulative counters.
		ropt.StoreCounters = func() (uint64, uint64) {
			s := st.Stats()
			return s.Hits, s.Misses
		}
	}
	var deps [][]int // stays nil unless some plan declares chains
	for pl, plan := range plans {
		first := firsts[pl]
		for _, chain := range plan.Chains {
			if deps == nil {
				deps = make([][]int, len(specs))
			}
			for k := 1; k < len(chain); k++ {
				prev, cur := chain[k-1], chain[k]
				reps := plan.Points[cur].Reps
				if p := plan.Points[prev].Reps; p < reps {
					reps = p
				}
				for r := 0; r < reps; r++ {
					deps[first[cur]+r] = append(deps[first[cur]+r], first[prev]+r)
				}
			}
		}
	}
	outs, err := runner.Execute(specs, deps, run, ropt)
	if err != nil {
		return nil, err
	}
	tables := make([]*Table, len(plans))
	i := 0
	for pl, plan := range plans {
		res := make([][]Out, len(plan.Points))
		for pi := range plan.Points {
			res[pi] = outs[i : i+plan.Points[pi].Reps]
			i += plan.Points[pi].Reps
		}
		tab, err := plan.Assemble(res)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ids[pl], err)
		}
		tables[pl] = tab
	}
	return tables, nil
}

// Metric indexes of the vector produced by channelRun.
const (
	cmRate = iota // payload bit-rate, KB/s
	cmErr         // payload bit-error rate, percent
	cmZO          // raw 0->1 error rate, percent
	cmOZ          // raw 1->0 error rate, percent
	cmGap         // max sender-receiver gap, bits
)

// channelRun returns a pure per-run function that executes the channel
// once with mk's config and a seed-derived payload, reporting the standard
// channel metrics (see the cm* indexes).
func (o Opts) channelRun(mk func(rep int, seed uint64) core.Config, bits int) func(int, uint64) (Out, error) {
	return func(rep int, seed uint64) (Out, error) {
		cfg := mk(rep, seed)
		cfg.Seed = seed
		res, err := o.Engine.RunRandom(cfg, seed^0xbead, bits)
		if err != nil {
			return Out{}, err
		}
		return Out{Metrics: channelMetrics(res)}, nil
	}
}

// channelMetrics is the standard metric vector (see the cm* indexes).
func channelMetrics(res *core.Result) []float64 {
	return []float64{
		res.BitRateKBps,
		res.Errors.Rate() * 100,
		res.RawErrors.RateZeroToOne() * 100,
		res.RawErrors.RateOneToZero() * 100,
		float64(res.MaxGap),
	}
}

// Chain tags shared across experiments. Runs carrying the same tag and
// repetition index use one seed and one payload stream (common random
// numbers), so members whose configs match dedup through the result store
// and shorter members fork from checkpoints longer members published —
// content-addressed, regardless of which experiment ran first (see
// internal/core reuse.go / checkpoint.go).
const (
	// chainDefault is the DefaultConfig payload ladder: fig9, table2's
	// statistics points, and the DefaultConfig anchor points of tables 3-5.
	chainDefault = "ladder-default"
	// chainBurst is the DefaultConfig ladder over the burst-structure
	// payload stream (table2's instrumented single-rep points).
	chainBurst = "ladder-burst"
)

// chainSeed derives the common seed shared by every member of chain tag at
// one repetition. The per-spec seed is deliberately unused by chained runs:
// a fork can only extend a prefix that was simulated under the same seed.
func chainSeed(o Opts, tag string, rep int) (key, seed uint64) {
	key = rng.HashString("chain:" + tag)
	seed = rng.Derive(o.Seed, key, uint64(rep))
	return key, seed
}

// chainedRun is channelRun for prefix-sharing ladders: the run joins the
// given chain, seeds from chainSeed instead of the per-spec seed, and draws
// its payload from the chain's payloadTag stream — so every member's payload
// is a prefix of the longer members' payloads, the precondition for
// checkpoint forking (core.ChainSpec). mk must return the same config for
// every member that is meant to share state.
func (o Opts) chainedRun(tag string, lengths []int, payloadTag uint64,
	mk func(rep int, seed uint64) core.Config, bits int) func(int, uint64) (Out, error) {
	return func(rep int, _ uint64) (Out, error) {
		key, seed := chainSeed(o, tag, rep)
		cfg := mk(rep, seed)
		cfg.Seed = seed
		cfg.Chain = &core.ChainSpec{Key: key, Lengths: lengths}
		res, err := o.Engine.RunRandom(cfg, seed^payloadTag, bits)
		if err != nil {
			return Out{}, err
		}
		return Out{Metrics: channelMetrics(res)}, nil
	}
}

// summarize computes the 95%-CI summary of one metric across a point's
// repetitions.
func summarize(outs []Out, metric int) stats.Summary {
	vals := make([]float64, len(outs))
	for i, o := range outs {
		vals[i] = o.Metrics[metric]
	}
	return stats.Summarize(vals)
}

func pct(s stats.Summary) string {
	return fmt.Sprintf("%.2f%% (± %.2f%%)", s.Mean, s.Margin)
}

func kbps(s stats.Summary) string {
	return fmt.Sprintf("%.0f KB/s (± %.0f)", s.Mean, s.Margin)
}
