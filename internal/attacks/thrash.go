package attacks

import (
	"streamline/internal/hier"
	"streamline/internal/mem"
	"streamline/internal/pattern"
)

// ThrashReload is the flushless Flush+Reload variant of NetSpectre
// (Schwarz et al., ESORICS'19): with no clflush available, the receiver
// resets the channel each bit by thrashing the whole LLC — walking a
// buffer larger than the cache so the shared line is evicted by capacity
// pressure. The thrash makes each bit period enormous; the paper uses it
// to show that thrashing per bit (synchronously) is ~14000x slower than
// Streamline's amortized thrash-by-transmission.
type ThrashReload struct {
	env          *epochEnv
	addr         mem.Addr
	buf          mem.Region
	pat          pattern.Pattern
	thrashBits   uint64
	lapAddrs     []mem.Addr // one precomputed thrash lap, in pattern order
	sCore, rCore int
	// Laps is how many thrash passes the receiver makes per bit. The
	// LLC's scan-resistant replacement shields a recently reloaded line
	// from a single pass, so several are needed for reliable eviction.
	Laps int
}

// newThrashReload builds the attack on h (see Build). It ignores
// s.Window: the bit period is dominated by the thrash itself.
func newThrashReload(s Spec, h *hier.Hierarchy) (*ThrashReload, error) {
	env, err := newEpochEnv(s, h, 1)
	if err != nil {
		return nil, err
	}
	alloc := mem.NewAllocator(env.m.PageSize)
	shared := alloc.Alloc(env.m.PageSize)
	// The thrash must actually evict: a plain sequential walk is eaten by
	// the streamer prefetcher, whose distant-age prefetch fills absorb
	// every eviction and leave resident lines untouched. Walk with the
	// prefetcher-resistant stride-3 pattern instead, sized so one lap
	// covers 1.5x the LLC in distinct lines.
	buf := alloc.Alloc(env.m.LLC.SizeBytes * 9 / 2)
	pat := pattern.NewStreamline(env.h.Geometry())
	thrashBits := pat.LapBits(buf.Size)
	// Every lap walks the identical address sequence, so it is generated
	// once here and replayed through the batch kernel per bit.
	lapAddrs := make([]mem.Addr, thrashBits)
	pattern.FillAddrs(pat, lapAddrs, buf.Base, 0, buf.Size)
	return &ThrashReload{
		env:        env,
		addr:       shared.Base,
		buf:        buf,
		pat:        pat,
		thrashBits: thrashBits,
		lapAddrs:   lapAddrs,
		sCore:      0,
		rCore:      1,
		Laps:       2,
	}, nil
}

// Name implements Attack.
func (a *ThrashReload) Name() string { return "thrash+reload" }

// Model implements Attack.
func (a *ThrashReload) Model() string { return Model(a.Name()) }

// Run implements Attack. Warning: each bit simulates an LLC-sized buffer
// walk, so keep payloads small (hundreds of bits).
func (a *ThrashReload) Run(bits []byte) (*Result, error) {
	e := a.env
	lat := e.m.Lat
	decoded := make([]byte, len(bits))
	t := uint64(0)
	for i, b := range bits {
		// Sender encodes.
		if b == 0 {
			r := e.h.Access(a.sCore, a.addr, t)
			t += uint64(r.Latency)
		} else {
			t += 40
		}
		// Receiver decodes.
		r := e.h.Access(a.rCore, a.addr, t)
		if r.Latency <= lat.Threshold {
			decoded[i] = 0
		} else {
			decoded[i] = 1
		}
		t += uint64(r.Latency) + uint64(2*lat.TimerOverhead)
		// Receiver resets by thrashing: prefetcher-resistant laps over
		// the buffer until capacity pressure ages the shared line out.
		for lap := 0; lap < a.Laps; lap++ {
			res := e.h.AccessBatch(a.rCore, a.lapAddrs, t, hier.BatchClock{Div: e.m.MLP, Extra: 2})
			t += res.Cost
		}
		// Coarse re-synchronization before the next bit.
		t += 2000 + e.jitter()
	}
	return e.result(bits, decoded, t)
}
