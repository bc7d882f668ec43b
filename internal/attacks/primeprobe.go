package attacks

import (
	"streamline/internal/hier"
	"streamline/internal/mem"
)

// PrimeProbe is the set-conflict channel (Percival '05 on the L1; Liu et
// al., S&P'15 on the LLC). Per bit, the receiver primes one cache set with
// its own lines, the sender either accesses a conflicting address (bit 0)
// or stays idle (bit 1), and the receiver probes its lines, decoding a
// slow probe as a conflict. Unlike the flush attacks this needs no shared
// memory.
type PrimeProbe struct {
	env            *epochEnv
	llc            bool // LLC (cross-core) or L1 (same-core SMT)
	prime          []mem.Addr
	target         mem.Addr
	sCore, rCore   int
	ways           int
	probeThreshold int
	probeJitterSD  float64
}

// Default windows chosen to land at the rates reported for each variant
// (75 KB/s for the LLC channel, 400 KB/s for Percival's L1 channel).
const (
	PrimeProbeLLCWindow = 6350
	PrimeProbeL1Window  = 1190
)

// newPrimeProbe builds the cross-core LLC variant (llc) or the same-core
// (SMT) L1 variant in Percival's style on h (see Build).
func newPrimeProbe(s Spec, h *hier.Hierarchy, llc bool) (*PrimeProbe, error) {
	defWindow := uint64(PrimeProbeL1Window)
	if llc {
		defWindow = PrimeProbeLLCWindow
	}
	env, err := newEpochEnv(s, h, defWindow)
	if err != nil {
		return nil, err
	}
	m := env.m
	g, rCore := m.L1, 0
	if llc {
		g, rCore = m.LLC, 1
	}
	a := &PrimeProbe{env: env, llc: llc, sCore: 0, rCore: rCore, ways: g.Ways}
	// Receiver lines: `ways` addresses mapping to the same set (stride =
	// sets * lineBytes; 4 KB on the L1's 32K/8w/64B); the sender's target
	// is one more tag in the same set.
	stride := mem.Addr(g.Sets() * g.LineBytes)
	base := mem.Addr(m.PageSize) // skip the null page
	for w := 0; w < a.ways; w++ {
		a.prime = append(a.prime, base+mem.Addr(w)*stride)
	}
	a.target = base + mem.Addr(a.ways)*stride
	if llc {
		// A clean probe is `ways` LLC hits; one conflict-induced miss adds
		// ~(miss - hit) cycles.
		missLat := m.Lat.LLCHit + m.Lat.DRAMBase
		a.probeThreshold = a.ways*m.Lat.LLCHit + (missLat-m.Lat.LLCHit)/2
		a.probeJitterSD = 6
	} else {
		// A clean probe is `ways` L1 hits; a conflict turns one into an L2
		// (or worse) access. The decision margin is only a few cycles, so
		// the measurement jitter must be correspondingly small (Percival
		// times with a tight loop on the same core).
		a.probeThreshold = a.ways*m.Lat.L1Hit + (m.Lat.L2Hit-m.Lat.L1Hit)/2
		a.probeJitterSD = 1.0
	}
	return a, nil
}

// Name implements Attack.
func (a *PrimeProbe) Name() string {
	if a.llc {
		return "prime+probe(llc)"
	}
	return "prime+probe(l1)"
}

// Model implements Attack.
func (a *PrimeProbe) Model() string { return Model(a.Name()) }

// Run implements Attack.
func (a *PrimeProbe) Run(bits []byte) (*Result, error) {
	e := a.env
	decoded := make([]byte, len(bits))
	t := uint64(0)
	gap := e.window / 3
	for i, b := range bits {
		// Prime: one batch over the set's lines, pipelined at the MLP.
		e.h.AccessBatch(a.rCore, a.prime, t+e.jitter(), hier.BatchClock{Div: e.m.MLP})
		// Sender acts mid-window.
		if b == 0 {
			e.h.Access(a.sCore, a.target, t+gap+e.jitter())
		}
		// Probe: total latency over the primed lines.
		res := e.h.AccessBatch(a.rCore, a.prime, t+2*gap+e.jitter(), hier.BatchClock{Div: e.m.MLP})
		probe := int(res.LatencySum) + int(e.x.Norm()*a.probeJitterSD)
		if probe >= a.probeThreshold {
			decoded[i] = 0 // conflict observed
		} else {
			decoded[i] = 1
		}
		t += e.window
	}
	return e.result(bits, decoded, t)
}
