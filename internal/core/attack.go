// The two other typed runs an Engine serves besides the channel: a
// baseline attack (RunAttack) and Table 1's prefetcher probe (RunXYProbe).
// Each is named by value, keyed by the same enc helpers as configTerms,
// and served by the one read-through/write-back path (Engine.serve), so
// every stored run has one audited key and one codec, Result's.

package core

import (
	"fmt"

	"streamline/internal/attacks"
	"streamline/internal/hier"
	"streamline/internal/mem"
	"streamline/internal/params"
	"streamline/internal/pattern"
	"streamline/internal/payload"
	"streamline/internal/resultstore"
)

// Key schemas of the attack and probe runs. Each extends storeKeySchema,
// which versions the Result codec their entries use, with its own tag, so
// no two kinds of run can share a key.
const (
	attackKeySchema  = storeKeySchema + "/attack-v1"
	xyProbeKeySchema = storeKeySchema + "/xyprobe-v1"
)

// RunAttack returns the outcome of attacks.Build(spec) transmitting
// payload.Random(payloadSeed, n), served from the store when an equal
// spec and payload ran before. The Result carries PayloadBits, Cycles,
// BitRateKBps, Errors and, with spec.CounterWindow > 0, Counters; every
// other field is zero.
func (e *Engine) RunAttack(spec attacks.Spec, payloadSeed uint64, n int) (*Result, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: empty payload")
	}
	return e.serve(func() resultstore.Key { return attackKey(&spec, payloadSeed, n) },
		func() (*Result, error) {
			a, err := attacks.Build(spec)
			if err != nil {
				return nil, err
			}
			e.ctr.sims.Add(1)
			r, err := a.Run(payload.Random(payloadSeed, n))
			if err != nil {
				return nil, err
			}
			return &Result{PayloadBits: r.Bits, Cycles: r.Cycles, BitRateKBps: r.BitRateKBps,
				Errors: r.Errors, Counters: r.Counters}, nil
		})
}

// attackKey is the content address of one RunAttack: every Spec field
// (the machine by its audited Fingerprint) and the payload's generator
// inputs. The key-sensitivity test (attack_test.go) mutates every field
// and fails when one does not move the key.
func attackKey(s *attacks.Spec, payloadSeed uint64, n int) resultstore.Key {
	e := newEnc(256)
	e.str(attackKeySchema)
	e.u64(machineOf(s.Machine).Fingerprint())
	e.str(s.Kind)
	e.u64(s.Window)
	e.u64(s.Seed)
	e.f64(s.AlignJitter)
	e.u64(s.CounterWindow)
	e.i(s.PartitionWays)
	e.ints(s.CoreDomains)
	e.f64(s.RandomFillProb)
	e.quota(s.Quota)
	e.payloadKeyGen(payloadSeed, n)
	return resultstore.KeyOf(e.b)
}

// RunXYProbe measures Table 1's prefetcher probe: n demand loads on core 0
// of a fresh Skylake hierarchy, following the (x, y) strided pattern, each
// issued 60 cycles after the previous one completes. The Result carries
// PayloadBits = n, the probe's Cycles, and ReceiverLevels, the loads
// counted by serving level; the miss rate is ReceiverLevels[hier.DRAM] / n.
func (e *Engine) RunXYProbe(seed uint64, x, y, n int) (*Result, error) {
	m := defaultMachine
	if x <= 0 || y <= 0 || n <= 0 {
		return nil, fmt.Errorf("core: invalid XY probe x=%d y=%d n=%d", x, y, n)
	}
	return e.serve(func() resultstore.Key { return xyProbeKey(m, seed, x, y, n) },
		func() (*Result, error) {
			h, err := hier.New(m, hier.Options{Seed: seed})
			if err != nil {
				return nil, err
			}
			e.ctr.sims.Add(1)
			alloc := mem.NewAllocator(m.PageSize)
			// Enough pages that the pattern never wraps within n accesses.
			reg := alloc.Alloc(16 << 20)
			pat := pattern.NewXY(h.Geometry(), x, y, 0)
			res := &Result{PayloadBits: n}
			for i := 0; i < n; i++ {
				r := h.Access(0, reg.AddrAt(pat.Offset(uint64(i), reg.Size)), res.Cycles)
				res.ReceiverLevels[r.Level]++
				res.Cycles += uint64(r.Latency) + 60
			}
			return res, nil
		})
}

// xyProbeKey is the content address of one RunXYProbe: the machine
// fingerprint and every argument.
func xyProbeKey(m *params.Machine, seed uint64, x, y, n int) resultstore.Key {
	e := newEnc(64)
	e.str(xyProbeKeySchema)
	e.u64(m.Fingerprint())
	e.u64(seed)
	e.i(x)
	e.i(y)
	e.i(n)
	return resultstore.KeyOf(e.b)
}

// machineOf resolves a nil machine to the default Skylake, so nil and an
// explicit default share store entries.
func machineOf(m *params.Machine) *params.Machine {
	if m == nil {
		return defaultMachine
	}
	return m
}
