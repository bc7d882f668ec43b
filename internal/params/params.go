// Package params describes the simulated machine: cache geometry, latencies,
// timing constants, and the covert-channel defaults taken from the Streamline
// paper's evaluation platform (Intel Xeon E3-1270 v5, Skylake).
//
// All Streamline components take a *Machine so that experiments can vary the
// platform (e.g. Kaby Lake, Coffee Lake, or a synthetic machine) without
// touching attack code.
package params

import "fmt"

// CacheGeom describes one cache level.
type CacheGeom struct {
	SizeBytes int // total capacity in bytes
	Ways      int // associativity
	LineBytes int // cache-line size in bytes
}

// Sets returns the number of sets implied by the geometry.
func (g CacheGeom) Sets() int { return g.SizeBytes / (g.Ways * g.LineBytes) }

// Validate reports an error if the geometry is not an internally consistent
// power-of-two design.
func (g CacheGeom) Validate() error {
	if g.SizeBytes <= 0 || g.Ways <= 0 || g.LineBytes <= 0 {
		return fmt.Errorf("params: non-positive cache geometry %+v", g)
	}
	if g.SizeBytes%(g.Ways*g.LineBytes) != 0 {
		return fmt.Errorf("params: size %d not divisible by ways*line (%d*%d)",
			g.SizeBytes, g.Ways, g.LineBytes)
	}
	if !isPow2(g.Sets()) {
		return fmt.Errorf("params: set count %d is not a power of two", g.Sets())
	}
	if !isPow2(g.LineBytes) {
		return fmt.Errorf("params: line size %d is not a power of two", g.LineBytes)
	}
	return nil
}

func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// Latencies holds the access-cost model in CPU cycles. The values are the
// measurements reported in the paper for the Skylake platform (LLC hit 95,
// LLC miss ~285, threshold 180).
type Latencies struct {
	L1Hit  int // load hit in the L1 data cache
	L2Hit  int // load hit in the private L2
	LLCHit int // load hit in the shared LLC
	// DRAMBase is the mean additional latency of a DRAM access beyond the
	// LLC lookup; dram.Model adds row-buffer and queueing effects on top.
	DRAMBase int
	// Threshold is the receiver's LLC-hit/miss decision boundary in cycles.
	Threshold int
	// TimerOverhead is the cost in cycles of one fenced timestamp read
	// (rdtscp). Two reads bracket each measured load.
	TimerOverhead int
	// LoopOverhead is the per-iteration bookkeeping cost (index math,
	// branch) of the sender/receiver loops.
	LoopOverhead int
	// FlushLatency is the cost of a clflush to a cached line; FlushMiss is
	// the (cheaper) cost when the line is uncached. The ~10-cycle gap is
	// what Flush+Flush decodes.
	FlushLatency int
	FlushMiss    int
}

// Machine is the full platform description.
type Machine struct {
	Name     string
	FreqMHz  int // core clock; 3900 for the paper's Xeon E3-1270 v5
	Cores    int
	L1       CacheGeom
	L2       CacheGeom
	LLC      CacheGeom
	Lat      Latencies
	PageSize int // bytes; the attack reasons in 4 KB pages
	// MLP is the number of outstanding loads an un-fenced agent can
	// overlap (miss-status-holding registers visible to one thread).
	MLP int
	// NoUnprivilegedFlush marks platforms where user-space cache-line
	// flushes are unavailable (ARMv7 has no such instruction; ARMv8
	// disables unprivileged use by default — Section 2.3.2). Flush-based
	// attacks cannot run there; Streamline can.
	NoUnprivilegedFlush bool
}

// Validate checks the machine description for consistency.
func (m *Machine) Validate() error {
	if m.FreqMHz <= 0 {
		return fmt.Errorf("params: non-positive frequency %d", m.FreqMHz)
	}
	if m.Cores < 1 {
		return fmt.Errorf("params: need at least one core, got %d", m.Cores)
	}
	if m.PageSize <= 0 || !isPow2(m.PageSize) {
		return fmt.Errorf("params: page size %d must be a positive power of two", m.PageSize)
	}
	if m.MLP < 1 {
		return fmt.Errorf("params: MLP must be >= 1, got %d", m.MLP)
	}
	for _, g := range []struct {
		name string
		geom CacheGeom
	}{{"L1", m.L1}, {"L2", m.L2}, {"LLC", m.LLC}} {
		if err := g.geom.Validate(); err != nil {
			return fmt.Errorf("%s: %w", g.name, err)
		}
	}
	if m.L1.LineBytes != m.L2.LineBytes || m.L2.LineBytes != m.LLC.LineBytes {
		return fmt.Errorf("params: line sizes differ across levels")
	}
	if m.Lat.Threshold <= m.Lat.LLCHit {
		return fmt.Errorf("params: threshold %d must exceed LLC hit latency %d",
			m.Lat.Threshold, m.Lat.LLCHit)
	}
	return nil
}

// CyclesToKBps converts a per-bit period in cycles to a channel bit-rate in
// KB/s (1 KB = 1024 bytes = 8192 bits), the unit the paper reports.
func (m *Machine) CyclesToKBps(cyclesPerBit float64) float64 {
	if cyclesPerBit <= 0 {
		return 0
	}
	bitsPerSec := float64(m.FreqMHz) * 1e6 / cyclesPerBit
	return bitsPerSec / 8192.0
}

// SkylakeE3 returns the paper's evaluation platform: Intel Xeon E3-1270 v5,
// 4 cores at 3.9 GHz, 32 KB/8-way L1D, 256 KB/4-way L2, 8 MB/16-way inclusive
// LLC, with the latencies measured in Section 4.1.
func SkylakeE3() *Machine {
	return &Machine{
		Name:     "Intel Xeon E3-1270 v5 (Skylake)",
		FreqMHz:  3900,
		Cores:    4,
		L1:       CacheGeom{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64},
		L2:       CacheGeom{SizeBytes: 256 << 10, Ways: 4, LineBytes: 64},
		LLC:      CacheGeom{SizeBytes: 8 << 20, Ways: 16, LineBytes: 64},
		Lat:      skylakeLatencies(),
		PageSize: 4096,
		MLP:      4,
	}
}

func skylakeLatencies() Latencies {
	return Latencies{
		L1Hit:         4,
		L2Hit:         12,
		LLCHit:        95,
		DRAMBase:      190, // 95 (LLC lookup) + 190 = 285-cycle mean miss
		Threshold:     180,
		TimerOverhead: 27, // per rdtscp; two per measured load
		LoopOverhead:  12,
		FlushLatency:  70,
		FlushMiss:     60,
	}
}

// KabyLakeI7 returns the Core i7-8700K platform the paper also reproduced on:
// 6 cores at 4.3 GHz with a 12 MB LLC.
func KabyLakeI7() *Machine {
	m := SkylakeE3()
	m.Name = "Intel Core i7-8700K (Kaby Lake)"
	m.FreqMHz = 4300
	m.Cores = 6
	// 12 MB sliced LLC; modelled as 12-way so the set count stays a
	// power of two (16384).
	m.LLC = CacheGeom{SizeBytes: 12 << 20, Ways: 12, LineBytes: 64}
	return m
}

// CoffeeLakeI5 returns the Core i5-9400 platform (6 cores, 9 MB LLC at
// 3.9 GHz). The 9 MB LLC is modelled 18-way so the set count stays a power
// of two (8192).
func CoffeeLakeI5() *Machine {
	m := SkylakeE3()
	m.Name = "Intel Core i5-9400 (Coffee Lake)"
	m.Cores = 6
	m.LLC = CacheGeom{SizeBytes: 9 << 20, Ways: 18, LineBytes: 64}
	return m
}

// ARMCortexA72 returns an ARMv8 big-core platform (Cortex-A72-class, as in
// many phones and the Raspberry Pi 4): 4 cores at 1.8 GHz, 32 KB/2-way L1D,
// a shared 2 MB/16-way cache acting as the last level, and no unprivileged
// cache-flush instruction. This is the paper's motivation for a flushless
// attack (Section 2.3.2): Flush+Reload and Flush+Flush cannot run here,
// Streamline can.
func ARMCortexA72() *Machine {
	return &Machine{
		Name:    "ARM Cortex-A72 (ARMv8)",
		FreqMHz: 1800,
		Cores:   4,
		L1:      CacheGeom{SizeBytes: 32 << 10, Ways: 2, LineBytes: 64},
		// The A72 has no per-core L2; model a small private slice so the
		// three-level hierarchy shape is preserved while the shared 2 MB
		// cache plays the LLC role.
		L2:  CacheGeom{SizeBytes: 64 << 10, Ways: 4, LineBytes: 64},
		LLC: CacheGeom{SizeBytes: 2 << 20, Ways: 16, LineBytes: 64},
		Lat: Latencies{
			L1Hit:         3,
			L2Hit:         12,
			LLCHit:        30,
			DRAMBase:      130, // ~160-cycle miss at 1.8 GHz (~90 ns)
			Threshold:     80,
			TimerOverhead: 8, // cntvct_el0 reads are cheap
			LoopOverhead:  6,
			FlushLatency:  40, // privileged only; see NoUnprivilegedFlush
			FlushMiss:     35,
		},
		PageSize:            4096,
		MLP:                 2,
		NoUnprivilegedFlush: true,
	}
}
