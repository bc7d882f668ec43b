package stats

import "sort"

// Reference implementations that TestDirectionalBurstStats pins the
// streaming DirectionalBurstStats against.

// Bursts returns the lengths of maximal runs of consecutive errored bit
// positions, sorted descending. The paper observes 0→1 errors arrive in
// bursts while 1→0 errors are isolated.
func Bursts(sent, recv []byte) []int {
	var bursts []int
	run := 0
	for i := range sent {
		if i < len(recv) && sent[i] != recv[i] {
			run++
			continue
		}
		if run > 0 {
			bursts = append(bursts, run)
			run = 0
		}
	}
	if run > 0 {
		bursts = append(bursts, run)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(bursts)))
	return bursts
}

// DirectionalBursts computes burst lengths separately for each error
// direction: an error position counts toward the 0→1 list when sent[i]==0
// and toward the 1→0 list otherwise. Positions of the other direction
// break a run, matching how a burst-oriented decoder would see each error
// class (Section 4.3 of the paper: eviction errors are bursty, latency-
// tail errors are isolated).
func DirectionalBursts(sent, recv []byte) (zeroOne, oneZero []int) {
	masked := func(wantSent byte) []int {
		m := make([]byte, len(recv))
		copy(m, sent)
		for i := range sent {
			if sent[i] != recv[i] && sent[i] == wantSent {
				m[i] = recv[i] // keep this direction's errors
			}
		}
		return Bursts(sent, m)
	}
	return masked(0), masked(1)
}

// SingleBitFraction returns the fraction of error bursts of length one.
// Returns 1 when there are no bursts (vacuously all-single-bit).
func SingleBitFraction(bursts []int) float64 {
	if len(bursts) == 0 {
		return 1
	}
	singles := 0
	for _, b := range bursts {
		if b == 1 {
			singles++
		}
	}
	return float64(singles) / float64(len(bursts))
}
