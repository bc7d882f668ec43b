// Package streamline is a simulation-based reproduction of "Streamline: A
// Fast, Flushless Cache Covert-Channel Attack by Enabling Asynchronous
// Collusion" (Saileshwar, Fletcher, Qureshi — ASPLOS 2021).
//
// The package provides:
//
//   - the Streamline covert channel itself (Run / Send), an asynchronous,
//     flushless cache channel reaching ~1801 KB/s at ~0.37% bit-error-rate
//     on the simulated Skylake platform, matching the paper's evaluation;
//   - the baseline attacks it is compared against (Flush+Reload,
//     Flush+Flush, Prime+Probe, Thrash+Reload, Take-A-Way) via Baseline;
//   - the simulated machine models (Skylake, KabyLake, CoffeeLake).
//
// Everything runs on a deterministic cycle-level simulator of a multi-core
// cache hierarchy (set-associative L1/L2/LLC with RRIP-family replacement,
// Intel-like prefetchers, and a DRAM latency model); see DESIGN.md for the
// substitution argument and internal/ for the substrate packages. Results
// are reproducible bit-for-bit from Config.Seed.
//
// # Quick start
//
//	cfg := streamline.DefaultConfig()
//	xfer, err := streamline.Send(cfg, []byte("attack at dawn"))
//	if err != nil { ... }
//	fmt.Printf("%s (%.0f KB/s, %.2f%% bit errors)\n",
//		xfer.Received, xfer.Result.BitRateKBps, xfer.Result.Errors.Rate()*100)
package streamline

import (
	"fmt"
	"slices"

	"streamline/internal/attacks"
	"streamline/internal/core"
	"streamline/internal/experiments"
	"streamline/internal/params"
	"streamline/internal/payload"
)

// Config selects the channel configuration; see core.Config for every
// knob. DefaultConfig returns the paper's evaluation setup.
type Config = core.Config

// Result reports a channel run: bit-rate, error breakdown, gap statistics,
// and the decoded payload. Result.Decoded is a packed payload.Bits, 8 bits
// per byte: read bit i with Decoded.At(i), the received bytes with
// Decoded.Bytes(), or a one-byte-per-bit vector with Decoded.Unpack().
type Result = core.Result

// Machine describes a simulated platform.
type Machine = params.Machine

// AttackResult reports a baseline attack run.
type AttackResult = attacks.Result

// Attack is a baseline covert channel; see Baseline.
type Attack = attacks.Attack

// DefaultConfig returns the paper's default setup: 64 MB shared array,
// PRNG channel encoding, trailing accesses at lag 5000, rate-limited
// sender, coarse synchronization every 200000 bits, on the Skylake
// machine.
func DefaultConfig() Config { return core.DefaultConfig() }

// engine runs every channel this package transmits (Run, Send,
// SendReliable). It has no result store; sharing it lets repeated calls
// reuse warm snapshots.
var engine = core.NewEngine(core.EngineOptions{})

// Run transmits a 0/1 bit vector over the channel and returns the
// measured Result (bit-rate, error breakdown, gap trace).
func Run(cfg Config, payloadBits []byte) (*Result, error) {
	return engine.Run(cfg, payloadBits)
}

// Transfer is the outcome of a byte-level Send.
type Transfer struct {
	// Received is the payload as decoded by the receiver (same length as
	// the input; residual channel errors may flip bits unless ECC fully
	// corrected them). It shares storage with Result.Decoded.
	Received []byte
	// Result is the underlying channel measurement.
	Result *Result
}

// Send transmits data (bytes) over the channel and returns what the
// receiver decoded. Enable cfg.ECC for (72,64) Hamming protection of the
// payload. Unless the caller configured one, Send prepends an 8192-bit
// preamble so the warm-cache startup transient does not corrupt small
// payloads.
func Send(cfg Config, data []byte) (*Transfer, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("streamline: empty payload")
	}
	if cfg.PreambleBits == 0 {
		cfg.PreambleBits = 8192
	}
	bits := payload.FromBytes(data)
	res, err := engine.Run(cfg, bits)
	if err != nil {
		return nil, err
	}
	return &Transfer{Received: res.Decoded.Bytes(), Result: res}, nil
}

// Skylake returns the paper's evaluation platform (Intel Xeon E3-1270 v5).
func Skylake() *Machine { return params.SkylakeE3() }

// KabyLake returns the Core i7-8700K platform the paper also validated on.
func KabyLake() *Machine { return params.KabyLakeI7() }

// CoffeeLake returns the Core i5-9400 platform.
func CoffeeLake() *Machine { return params.CoffeeLakeI5() }

// ARM returns an ARMv8 Cortex-A72-class platform with no unprivileged
// flush instruction: flush-based attacks are impossible there, Streamline
// is not (Section 2.3.2). Pair it with ARMConfig.
func ARM() *Machine { return params.ARMCortexA72() }

// ARMConfig returns Streamline tuned for the ARM platform (smaller shared
// array, lag, and sync period to match its 2 MB last-level cache).
func ARMConfig() Config { return experiments.ARMStreamlineConfig() }

// SMTConfig returns the hyper-threaded same-core variant of Section 6:
// sender and receiver as SMT siblings targeting the shared L2.
func SMTConfig() Config { return experiments.SMTStreamlineConfig() }

// BaselineNames lists the prior-work attacks available from Baseline, in
// Table 6 order.
func BaselineNames() []string {
	return []string{
		"take-a-way", "flush+flush", "prime+probe(l1)",
		"flush+reload", "prime+probe(llc)", "thrash+reload",
	}
}

// AsyncPrimeProbe constructs the asynchronous Prime+Probe channel — the
// future-work direction the paper sketches in Section 5.2, realized here:
// Streamline's asynchronous self-resetting protocol over set conflicts,
// removing the shared-memory requirement at ~6x the rate of the
// synchronous LLC Prime+Probe.
func AsyncPrimeProbe(seed uint64) (Attack, error) {
	return attacks.Build(attacks.Spec{Kind: "async-prime+probe", Seed: seed})
}

// Baseline constructs one of the paper's comparison attacks by name (see
// BaselineNames) with its default, paper-matching bit period.
func Baseline(name string, seed uint64) (Attack, error) {
	if !slices.Contains(BaselineNames(), name) {
		return nil, fmt.Errorf("streamline: unknown baseline %q", name)
	}
	return attacks.Build(attacks.Spec{Kind: name, Seed: seed})
}

// BitsFromBytes unpacks bytes into the 0/1 bit vector Run consumes
// (LSB-first).
func BitsFromBytes(data []byte) []byte { return payload.FromBytes(data) }

// BytesFromBits packs a 0/1 bit vector back into bytes (LSB-first).
func BytesFromBits(bits []byte) []byte { return payload.ToBytes(bits) }

// RandomBits returns n deterministic pseudo-random payload bits.
func RandomBits(seed uint64, n int) []byte { return payload.Random(seed, n) }
