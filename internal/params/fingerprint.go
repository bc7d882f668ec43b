package params

// Fingerprint returns a stable 64-bit hash over every field of the machine
// description. Two machines with equal fingerprints have identical cache
// geometry, latency model, and platform capabilities, so simulator state
// built for one is shape-compatible with the other — the property the warm
// snapshot keys on (see DESIGN.md "State lifecycle"). The hash is
// FNV-1a over a fixed field serialization: stable across processes and Go
// versions (unlike anything map- or pointer-derived), and cheap enough to
// compute per run. The field audit in fingerprint_test.go fails when
// Machine gains a field this hash does not mix in.
func (m *Machine) Fingerprint() uint64 {
	h := uint64(fnvOffset)
	h = fnvString(h, m.Name)
	h = fnvUint(h, uint64(m.FreqMHz))
	h = fnvUint(h, uint64(m.Cores))
	h = fnvGeom(h, m.L1)
	h = fnvGeom(h, m.L2)
	h = fnvGeom(h, m.LLC)
	h = fnvLat(h, m.Lat)
	h = fnvUint(h, uint64(m.PageSize))
	h = fnvUint(h, uint64(m.MLP))
	h = fnvBool(h, m.NoUnprivilegedFlush)
	return h
}

// FNV-1a, 64-bit.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// FNVOffset is the FNV-1a initial state for composite fingerprints (the
// run-configuration fingerprints in internal/core fold further fields into
// a Machine fingerprint with FNVUint).
const FNVOffset = uint64(fnvOffset)

// FNVUint folds one 64-bit value into an FNV-1a hash state.
func FNVUint(h, v uint64) uint64 { return fnvUint(h, v) }

func fnvUint(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

func fnvBool(h uint64, b bool) uint64 {
	if b {
		return fnvUint(h, 1)
	}
	return fnvUint(h, 0)
}

func fnvString(h uint64, s string) uint64 {
	h = fnvUint(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

func fnvGeom(h uint64, g CacheGeom) uint64 {
	h = fnvUint(h, uint64(g.SizeBytes))
	h = fnvUint(h, uint64(g.Ways))
	return fnvUint(h, uint64(g.LineBytes))
}

func fnvLat(h uint64, l Latencies) uint64 {
	h = fnvUint(h, uint64(l.L1Hit))
	h = fnvUint(h, uint64(l.L2Hit))
	h = fnvUint(h, uint64(l.LLCHit))
	h = fnvUint(h, uint64(l.DRAMBase))
	h = fnvUint(h, uint64(l.Threshold))
	h = fnvUint(h, uint64(l.TimerOverhead))
	h = fnvUint(h, uint64(l.LoopOverhead))
	h = fnvUint(h, uint64(l.FlushLatency))
	return fnvUint(h, uint64(l.FlushMiss))
}
