// Package core implements the Streamline covert channel: an asynchronous,
// flushless cache channel in which the sender transmits each bit on a new
// cache line of a large shared array and the receiver follows behind,
// decoding LLC hits as 0 and misses as 1 (Section 3 of the paper).
//
// The channel runs on the simulated hierarchy of internal/hier, with the
// sender and receiver as deterministic agents interleaved by
// internal/sched. All of the paper's error-mitigation machinery is
// implemented and individually switchable for ablation:
//
//   - PRNG channel encoding for payload-independent rates (Section 3.2)
//   - the prefetcher/replacement-resistant XY address pattern (Section 3.3.1)
//   - trailing accesses that refresh replacement state (Section 3.3.2)
//   - a rate-limiting rdtscp in the sender (Section 3.4.1)
//   - coarse-grained Flush+Reload synchronization (Section 3.4.2)
//   - optional (72,64) Hamming SECDED error correction (Section 4.3)
package core

import (
	"fmt"

	"streamline/internal/cache"
	"streamline/internal/dram"
	"streamline/internal/hier"
	"streamline/internal/noise"
	"streamline/internal/params"
)

// Config selects the channel configuration. DefaultConfig returns the
// paper's evaluation setup.
type Config struct {
	// Machine is the simulated platform; nil selects params.SkylakeE3.
	Machine *params.Machine
	// ArraySize is the shared array size in bytes (paper default 64 MB).
	ArraySize int
	// Seed drives all simulator randomness (DRAM jitter, policies, OS
	// jitter); runs with equal seeds are identical.
	Seed uint64
	// KeySeed is the PRNG seed shared by sender and receiver for the
	// channel encoding.
	KeySeed uint64
	// Modulate applies the PRNG channel encoding (Section 3.2). Disabling
	// it reproduces the naive encoding of Figure 4.
	Modulate bool
	// NaivePattern replaces the paper's (x=3, y=2, start=14) address
	// sequence with the naive one-line-per-page pattern Figure 6 compares
	// it against.
	NaivePattern bool
	// TrailingLag is the distance, in bits, of the sender's replacement-
	// fooling re-accesses (paper: 5000). 0 disables them.
	TrailingLag int
	// RateLimitSender adds the sender's per-bit rdtscp (Section 3.4.1).
	RateLimitSender bool
	// SyncPeriod enables coarse synchronization every SyncPeriod bits
	// (paper default 200000); 0 disables it.
	SyncPeriod int
	// SyncLead is how many bits before the epoch end the receiver
	// signals (paper: 5000, i.e. at bit 195000 of a 200000 epoch).
	SyncLead int
	// DelayedStartBits is the receiver's delayed start, expressed as the
	// number of bits of head start the sender gets (paper: ~5000).
	DelayedStartBits int
	// ECC wraps the payload in (72,64) Hamming SECDED packets.
	ECC bool
	// PreambleBits prepends that many junk bits to the transmission so
	// the warm-cache startup transient (and the pre-trailing-access
	// window) burns off before real data flows. The paper's experiments
	// use none (its payloads are >= 200000 bits); small-payload users
	// should send ~8000.
	PreambleBits int
	// SenderCore and ReceiverCore pin the processes (must differ for the
	// cross-core model).
	SenderCore, ReceiverCore int
	// SameCore selects the hyper-threading model of Section 6: sender and
	// receiver run as SMT siblings on one core, sharing its L1/L2. The
	// channel then targets the L2 (the paper: "the L2 cache is a more
	// suitable target than the L1"): the shared array should be a few
	// times the L2 size, and the decode threshold must sit between the
	// L2-hit and LLC-hit latencies (see ThresholdOverride).
	SameCore bool
	// ThresholdOverride replaces the machine's LLC-oriented hit/miss
	// threshold for decoding (cycles); 0 keeps the default. The SMT
	// variant needs one between L2Hit and LLCHit.
	ThresholdOverride int
	// DisablePrefetch turns hardware prefetchers off (ablation).
	DisablePrefetch bool
	// LLCPolicy names an LLC replacement policy to override the
	// Skylake-flavoured default with (ablation): one of the cache.NewNamed
	// names, seeded from Seed. "" keeps the default.
	LLCPolicy string
	// DRAM overrides the DRAM timing model (ablation); nil uses defaults.
	DRAM *dram.Config
	// TraceLevels records each received bit's serving level into
	// Result.LevelTrace (diagnostics; costs one byte per channel bit).
	TraceLevels bool
	// OSJitter adds sporadic preemption-like delays to both processes.
	OSJitter bool
	// WarmupBytes models the setup-time page faulting of the shared
	// array: the sender's initialization walks the first WarmupBytes of
	// the mmap'd file, leaving those lines cached. The receiver therefore
	// sees spurious hits (1→0 errors) for the first few thousand bits —
	// the startup transient of Figure 9 and the payload-size-dependent
	// 1→0 rates of Table 2. 0 disables the warm-up.
	WarmupBytes int
	// HugePages mirrors the paper's methodology (Section 4.1): the shared
	// array is mapped with transparent huge pages, making TLB costs
	// negligible (a 64 MB array is 32 pages). Setting it false models
	// 4 KB pages: every page-visit of the pattern starts with a page walk
	// that rides on the receiver's timed load — the pathology huge pages
	// exist to avoid.
	HugePages bool
	// SystemNoise adds the light background cache activity of an
	// otherwise-idle Linux machine (kernel threads, daemons). It supplies
	// the residual 0→1 error floor the paper measures even without
	// stress-ng co-runners.
	SystemNoise bool
	// Noise lists co-running cache-stressing workloads; each is pinned to
	// a core distinct from the sender and receiver when possible.
	Noise []noise.Config
	// GapSampleEvery records a (bitsTransmitted, gap) sample each time the
	// sender advances this many bits; 0 disables sampling (Figure 7).
	GapSampleEvery int
	// CamouflageAccesses implements the adaptive variant Section 7
	// sketches for fooling performance-counter detectors: sender and
	// receiver each mix this many extra loads per bit to a private warm
	// buffer. The extra accesses are LLC hits, so they dilute the
	// process's LLC miss *ratio* below detection thresholds while
	// costing a controlled amount of bit-rate. 0 disables camouflage.
	CamouflageAccesses int
	// PartitionWays enables the DAWG-style isolation mitigation of
	// Section 7: the sender's and receiver's cores are placed in separate
	// trust domains, each confined to an LLC partition of PartitionWays
	// ways. Cross-domain hits become impossible, which should kill the
	// channel entirely.
	PartitionWays int
	// RandomFillProb enables the random-fill noise-injection mitigation:
	// each demand fill skips the LLC with this probability.
	RandomFillProb float64
	// Quota enables the CacheBar-style mitigation: one shared LLC with
	// per-core way budgets (and optionally copy-on-access denial of
	// cross-domain hits). Mutually exclusive with PartitionWays; each core
	// is its own accounting domain.
	Quota *hier.QuotaConfig
	// CounterWindow streams per-core performance counters out of the
	// hierarchy in windows of this many cycles (Result.Counters) — the
	// input to the internal/defense detector pipeline. 0 disables the
	// counters; enabling them provably does not perturb the simulation.
	CounterWindow uint64
	// GapClamp, when positive, makes the sender idle whenever it is
	// GapClamp bits ahead of the receiver. The Figure 6 experiment uses
	// this to hold the sender-receiver gap at a controlled value; it is
	// an experimental control, not part of the attack.
	GapClamp int
	// Chain declares that this run belongs to a payload-length ladder of
	// otherwise-identical runs, enabling the mid-run checkpoint tree (see
	// DESIGN.md "Snapshot tree"): runs that differ only in payload length
	// simulate identically until the shorter one's last bit, so the longer
	// run can fork from a snapshot taken at that boundary instead of
	// re-simulating the prefix. Chain is a pure optimization — results are
	// bit-identical with it nil, and an Engine built with NoCheckpoints
	// ignores it (the golden suite's checkpoint-off axis pins this).
	Chain *ChainSpec
}

// ChainSpec identifies a prefix-sharing family of runs. All members must be
// built from one Config varied only in payload length, with payloads that
// are prefixes of one another (e.g. payload.Random under one seed truncated
// to each length) — the checkpoint machinery verifies the transmitted-bit
// prefix by hash before forking and falls back to a cold run on mismatch,
// so a violated contract costs speed, never correctness.
type ChainSpec struct {
	// Key disambiguates chains whose Configs hash alike; callers derive it
	// from the experiment identity and the payload seed.
	Key uint64
	// Lengths lists the family's payload bit-lengths. Checkpoints are
	// published at the transmitted-bit boundary of every length except the
	// longest (nothing could fork from it). With ECC enabled, lengths must
	// be multiples of ecc.DataBits or the final-packet padding breaks
	// prefix sharing; unaligned lengths are simply not shared.
	Lengths []int
}

// defaultMachine is the single Skylake instance DefaultConfig (and
// validate's nil-Machine default) hand out. A Machine installed in a Config
// is read-only everywhere in this package, so sweep loops calling
// DefaultConfig per repetition share it instead of rebuilding the parameter
// tables; callers wanting a modified platform install their own
// params.Machine (as params.KabyLakeI7 etc. do) rather than mutating this
// one.
var defaultMachine = params.SkylakeE3()

// DefaultConfig returns the paper's default setup: 64 MB array, PRNG
// encoding, trailing lag 5000, rate-limited sender, sync every 200000 bits
// with a 5000-bit lead, on the Skylake machine.
func DefaultConfig() Config {
	return Config{
		Machine:          defaultMachine,
		ArraySize:        64 << 20,
		Seed:             1,
		KeySeed:          0x5eed,
		Modulate:         true,
		TrailingLag:      5000,
		RateLimitSender:  true,
		SyncPeriod:       200000,
		SyncLead:         5000,
		DelayedStartBits: 5000,
		SenderCore:       0,
		ReceiverCore:     1,
		OSJitter:         true,
		HugePages:        true,
		WarmupBytes:      1 << 20,
		SystemNoise:      true,
	}
}

// validate fills defaults and checks consistency.
func (c *Config) validate() error {
	c.Machine = machineOf(c.Machine)
	if err := c.Machine.Validate(); err != nil {
		return err
	}
	if c.ArraySize <= 0 {
		return fmt.Errorf("core: non-positive array size %d", c.ArraySize)
	}
	if c.ArraySize%c.Machine.PageSize != 0 {
		return fmt.Errorf("core: array size %d not page aligned", c.ArraySize)
	}
	if c.SameCore {
		if c.SenderCore != c.ReceiverCore {
			return fmt.Errorf("core: SameCore requires sender and receiver on one core")
		}
	} else if c.SenderCore == c.ReceiverCore {
		return fmt.Errorf("core: sender and receiver must be on different cores (or set SameCore)")
	}
	if c.SenderCore < 0 || c.SenderCore >= c.Machine.Cores ||
		c.ReceiverCore < 0 || c.ReceiverCore >= c.Machine.Cores {
		return fmt.Errorf("core: cores (%d,%d) out of range for %d-core machine",
			c.SenderCore, c.ReceiverCore, c.Machine.Cores)
	}
	if c.SyncPeriod < 0 || c.TrailingLag < 0 || c.DelayedStartBits < 0 || c.PreambleBits < 0 {
		return fmt.Errorf("core: negative period/lag")
	}
	if c.SyncPeriod > 0 && (c.SyncLead <= 0 || c.SyncLead >= c.SyncPeriod) {
		return fmt.Errorf("core: sync lead %d must be in (0, period %d)", c.SyncLead, c.SyncPeriod)
	}
	if c.ThresholdOverride < 0 || (c.ThresholdOverride > 0 && c.ThresholdOverride <= c.Machine.Lat.L1Hit) {
		return fmt.Errorf("core: threshold override %d out of range", c.ThresholdOverride)
	}
	if c.CamouflageAccesses < 0 {
		return fmt.Errorf("core: negative camouflage accesses")
	}
	if c.DRAM != nil {
		if err := c.DRAM.Validate(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	if c.Quota != nil && c.PartitionWays > 0 {
		return fmt.Errorf("core: Quota and PartitionWays are mutually exclusive")
	}
	if c.LLCPolicy != "" {
		if _, err := cache.NewNamed(c.LLCPolicy, 0); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	return nil
}

// threshold returns the decode boundary in cycles.
//
//detlint:hotpath
func (c *Config) threshold() int {
	if c.ThresholdOverride > 0 {
		return c.ThresholdOverride
	}
	return c.Machine.Lat.Threshold
}
