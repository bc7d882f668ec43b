package dram

import "streamline/internal/mem"

// MeanIdle estimates the model's mean latency under no contention by
// sampling.
func MeanIdle(cfg Config, seed uint64, samples int) float64 {
	m := New(cfg, seed)
	var sum int64
	now := uint64(0)
	for i := 0; i < samples; i++ {
		// Spread accesses over addresses and time so queueing and row
		// locality do not dominate.
		a := mem.Addr(uint64(i) * 64 * 37)
		sum += int64(m.Latency(now, a))
		now += 300
	}
	return float64(sum) / float64(samples)
}
