package attacks

import (
	"streamline/internal/mem"
	"streamline/internal/params"
	"streamline/internal/rng"
	"streamline/internal/stats"
	"streamline/internal/waypred"
)

// TakeAway is the same-core way-predictor channel of Lipp et al.
// (AsiaCCS'20), the fastest prior same-core attack (588 KB/s in Table 6).
// It runs many parallel synchronous channels, one per L1 set: each channel
// is an address pair colliding in the AMD µTag way predictor, so a sender
// access evicts the receiver's predictor entry and flips its reload
// latency.
type TakeAway struct {
	m        *params.Machine
	pred     *waypred.Predictor
	x        *rng.Xoshiro
	window   uint64
	channels int
	pairs    [][2]mem.Addr
}

// TakeAwayWindow is the default epoch length in cycles. With 80 parallel
// channels per epoch it lands at the reported ~588 KB/s; the bulk of the
// window is the per-epoch synchronization overhead of the 80-channel
// protocol.
const TakeAwayWindow = 64800

// newTakeAway builds the attack with the paper's 80 parallel channels and
// the given window (0 selects the default); m supplies the clock only.
func newTakeAway(m *params.Machine, window uint64, seed uint64) *TakeAway {
	const channels = 80
	if window == 0 {
		window = TakeAwayWindow
	}
	a := &TakeAway{
		m:        m,
		pred:     waypred.New(waypred.DefaultConfig(), seed),
		x:        rng.New(seed ^ 0x7a4e),
		window:   window,
		channels: channels,
	}
	for i := 0; i < channels; i++ {
		recv := mem.Addr(0x100000 + i*64)
		send := a.pred.FindCollision(recv, 0x8000000)
		a.pairs = append(a.pairs, [2]mem.Addr{recv, send})
	}
	return a
}

// Name implements Attack.
func (a *TakeAway) Name() string { return "take-a-way" }

// Model implements Attack.
func (a *TakeAway) Model() string { return Model(a.Name()) }

// Run implements Attack: bits are striped across the parallel channels,
// one epoch transmitting `channels` bits.
func (a *TakeAway) Run(bits []byte) (*Result, error) {
	decoded := make([]byte, len(bits))
	t := uint64(0)
	thr := a.pred.Threshold()
	for start := 0; start < len(bits); start += a.channels {
		end := start + a.channels
		if end > len(bits) {
			end = len(bits)
		}
		// Receiver primes every channel.
		for i := start; i < end; i++ {
			a.pred.Access(a.pairs[i-start][0])
		}
		// Sender transmits: a conflicting load encodes 0.
		for i := start; i < end; i++ {
			if bits[i] == 0 {
				a.pred.Access(a.pairs[i-start][1])
			}
		}
		// Receiver reloads and times each channel.
		for i := start; i < end; i++ {
			lat := a.pred.Access(a.pairs[i-start][0])
			if lat > thr {
				decoded[i] = 0 // conflict evicted the entry
			} else {
				decoded[i] = 1
			}
		}
		t += a.window
	}
	br, err := stats.Compare(bits, decoded)
	if err != nil {
		return nil, err
	}
	res := &Result{Bits: len(bits), Cycles: t, Errors: br}
	secs := float64(t) / (float64(a.m.FreqMHz) * 1e6)
	if secs > 0 {
		res.BitRateKBps = float64(len(bits)) / 8192.0 / secs
	}
	return res, nil
}
