// Package attacks implements the prior-work covert channels the paper
// compares against (Table 6, Figure 11): Flush+Reload, Flush+Flush,
// Prime+Probe on the LLC and on the L1 (Percival-style), Thrash+Reload,
// and Take-A-Way. All are synchronous epoch protocols: sender and receiver
// share a bit period ("window") and perform their per-bit operations at
// agreed offsets inside it, with imperfect alignment modelled as jitter.
//
// Each attack runs on the same simulated hierarchy as Streamline, so the
// comparison measures protocol structure (synchronous vs asynchronous,
// flush vs thrash) rather than differences in substrate.
package attacks

import (
	"fmt"

	"streamline/internal/hier"
	"streamline/internal/params"
	"streamline/internal/rng"
	"streamline/internal/stats"
)

// Result reports one attack run.
type Result struct {
	Bits        int
	Cycles      uint64
	BitRateKBps float64
	Errors      stats.ErrorBreakdown
	// Counters holds the per-core performance-counter windows recorded
	// when Spec.CounterWindow > 0, the input to internal/defense's
	// detectors; nil otherwise.
	Counters []hier.CounterWindow
}

// Attack is a covert channel that transmits a bit vector and reports the
// achieved rate and error.
type Attack interface {
	// Name identifies the attack (e.g. "flush+reload"): its Spec kind.
	Name() string
	// Model is "cross-core" or "same-core".
	Model() string
	// Run transmits bits and returns the measurement.
	Run(bits []byte) (*Result, error)
}

// Spec names one attack by value: Build constructs the same attack from
// equal Specs, so a Spec together with the payload is the content key of
// an attack run (core.Engine.RunAttack). Zero fields select the defaults:
// Skylake, the kind's window and jitter, an undefended hierarchy, no
// counters. The defense fields use core.Config's vocabulary and mean what
// the hier.Options fields of the same names mean.
type Spec struct {
	// Kind is the attack: one of streamline.BaselineNames, or
	// "async-prime+probe".
	Kind string
	// Machine is the simulated platform; nil selects params.SkylakeE3.
	Machine *params.Machine
	// Window is the bit period in cycles; 0 selects the kind's default.
	// Kinds without an epoch clock (async-prime+probe, thrash+reload)
	// ignore it.
	Window uint64
	// Seed drives the attack's randomness (jitter, hierarchy policies).
	Seed uint64
	// AlignJitter is the standard deviation, in cycles, of the per-epoch
	// re-synchronization jitter of the synchronous kinds; 0 selects 150,
	// which matches the hand-tuned implementations behind Table 6's rates.
	// Figure 11 models the paper's unoptimized tutorial Flush+Reload, whose
	// synchronization is looser, with 600.
	AlignJitter float64
	// CounterWindow, when positive, records per-core performance counters
	// over the run in windows of this many cycles (Result.Counters).
	CounterWindow uint64
	// PartitionWays gives every trust domain its own LLC partition of that
	// many ways (DAWG-style isolation); CoreDomains assigns the cores to
	// trust domains. RandomFillProb is the random-fill noise-injection
	// probability, and Quota enables CacheBar-style way quotas.
	PartitionWays  int
	CoreDomains    []int
	RandomFillProb float64
	Quota          *hier.QuotaConfig
}

// Build constructs the attack s names; it is the package's one
// constructor. A flush-based kind on a platform without an unprivileged
// flush fails before any hierarchy is built, so probing a platform costs
// nothing. With CounterWindow > 0 every Run records the hierarchy's
// counters into its Result.
func Build(s Spec) (Attack, error) {
	m := s.Machine
	if m == nil {
		m = params.SkylakeE3()
	}
	switch s.Kind {
	case "flush+reload", "flush+flush":
		if m.NoUnprivilegedFlush {
			return nil, fmt.Errorf("attacks: %s needs an unprivileged flush instruction, which %s does not provide", s.Kind, m.Name)
		}
	case "prime+probe(llc)", "prime+probe(l1)", "thrash+reload", "async-prime+probe":
	case "take-a-way":
		if s.CounterWindow > 0 || s.PartitionWays > 0 || s.CoreDomains != nil || s.RandomFillProb > 0 || s.Quota != nil {
			return nil, fmt.Errorf("attacks: take-a-way runs on the way predictor, not the cache hierarchy, so it takes no defense or counter window")
		}
		return newTakeAway(m, s.Window, s.Seed), nil
	default:
		return nil, fmt.Errorf("attacks: unknown attack kind %q", s.Kind)
	}
	h, err := hier.New(m, hier.Options{
		Seed:           s.Seed,
		PartitionWays:  s.PartitionWays,
		CoreDomains:    s.CoreDomains,
		RandomFillProb: s.RandomFillProb,
		Quota:          s.Quota,
	})
	if err != nil {
		return nil, err
	}
	var a Attack
	switch s.Kind {
	case "flush+reload":
		a, err = newFlushReload(s, h)
	case "flush+flush":
		a, err = newFlushFlush(s, h)
	case "prime+probe(llc)":
		a, err = newPrimeProbe(s, h, true)
	case "prime+probe(l1)":
		a, err = newPrimeProbe(s, h, false)
	case "thrash+reload":
		a, err = newThrashReload(s, h)
	case "async-prime+probe":
		a, err = newAsyncPrimeProbe(s, h)
	}
	if err != nil {
		return nil, err
	}
	if s.CounterWindow > 0 {
		a = &monitored{Attack: a, h: h, window: s.CounterWindow}
	}
	return a, nil
}

// Model returns the threat model of attack kind: the L1 and way-predictor
// channels need the sender on the receiver's core, every other kind
// crosses cores.
func Model(kind string) string {
	switch kind {
	case "prime+probe(l1)", "take-a-way":
		return "same-core"
	}
	return "cross-core"
}

// monitored is an attack whose Runs record the hierarchy's per-core
// performance counters.
type monitored struct {
	Attack
	h      *hier.Hierarchy
	window uint64
}

// Run implements Attack: the monitor watches exactly the wrapped Run.
func (a *monitored) Run(bits []byte) (*Result, error) {
	mon := hier.NewMonitor(a.h.Machine().Cores, a.window)
	a.h.AttachMonitor(mon)
	defer a.h.DetachMonitor()
	res, err := a.Attack.Run(bits)
	if err != nil {
		return nil, err
	}
	res.Counters = mon.Windows()
	return res, nil
}

// epochEnv bundles what the synchronous attacks share: a hierarchy, a
// window, and alignment jitter.
type epochEnv struct {
	h      *hier.Hierarchy
	m      *params.Machine
	x      *rng.Xoshiro
	window uint64
	// alignSD is the per-epoch scheduling jitter each side suffers when
	// re-synchronizing on rdtscp (cycles).
	alignSD float64
}

// newEpochEnv wraps h for the synchronous attack s: its bit period is
// s.Window, or defWindow when that is zero.
func newEpochEnv(s Spec, h *hier.Hierarchy, defWindow uint64) (*epochEnv, error) {
	w := s.Window
	if w == 0 {
		w = defWindow
	}
	if w == 0 {
		return nil, fmt.Errorf("attacks: zero window")
	}
	sd := s.AlignJitter
	if sd == 0 {
		sd = 150
	}
	return &epochEnv{h: h, m: h.Machine(), x: rng.New(s.Seed ^ 0xa77ac), window: w, alignSD: sd}, nil
}

// jitter returns a non-negative alignment offset.
func (e *epochEnv) jitter() uint64 {
	v := e.x.Norm() * e.alignSD
	if v < 0 {
		v = -v
	}
	return uint64(v)
}

func (e *epochEnv) result(bits, decoded []byte, cycles uint64) (*Result, error) {
	br, err := stats.Compare(bits, decoded)
	if err != nil {
		return nil, err
	}
	res := &Result{Bits: len(bits), Cycles: cycles, Errors: br}
	secs := float64(cycles) / (float64(e.m.FreqMHz) * 1e6)
	if secs > 0 {
		res.BitRateKBps = float64(len(bits)) / 8192.0 / secs
	}
	return res, nil
}
