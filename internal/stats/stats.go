// Package stats provides the statistical summaries the paper reports:
// means with 95% confidence intervals, bit-error-rate breakdowns by error
// direction (0→1 vs 1→0), and burst-length analysis used to argue that
// eviction errors are bursty while latency-tail errors are single-bit
// (Section 4.3).
package stats

import (
	"fmt"
	"math"
)

// Summary is a mean with a 95% confidence interval, matching the
// "value (± margin)" format of the paper's tables.
type Summary struct {
	Mean   float64
	Margin float64 // half-width of the 95% CI
	N      int
}

// Summarize computes a Summary over samples. With fewer than two samples the
// margin is zero. The CI uses the normal approximation with a small-sample
// t-multiplier table for n <= 30.
func Summarize(samples []float64) Summary {
	n := len(samples)
	if n == 0 {
		return Summary{}
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	mean := sum / float64(n)
	if n == 1 {
		return Summary{Mean: mean, N: 1}
	}
	var ss float64
	for _, v := range samples {
		d := v - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-1))
	se := sd / math.Sqrt(float64(n))
	return Summary{Mean: mean, Margin: tMult(n-1) * se, N: n}
}

// tMult returns the two-sided 95% Student-t multiplier for df degrees of
// freedom (1.96 asymptotically).
func tMult(df int) float64 {
	table := []float64{
		0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
		2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,
		2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	}
	if df <= 0 {
		return 0
	}
	if df < len(table) {
		return table[df]
	}
	return 1.96
}

// String renders the summary in the paper's "v (± m)" style.
func (s Summary) String() string {
	return fmt.Sprintf("%.4g (± %.2g)", s.Mean, s.Margin)
}

// ErrorBreakdown classifies the disagreement between transmitted and
// received bit streams. Bits are 0/1 bytes.
type ErrorBreakdown struct {
	Total     int // compared bit count
	Errors    int // total flipped bits
	ZeroToOne int // sent 0, decoded 1 (premature eviction)
	OneToZero int // sent 1, decoded 0 (DRAM latency tail / stale hit)
}

// Compare computes the breakdown between sent and received. The slices must
// have equal length.
func Compare(sent, recv []byte) (ErrorBreakdown, error) {
	if len(sent) != len(recv) {
		return ErrorBreakdown{}, fmt.Errorf("stats: length mismatch %d vs %d", len(sent), len(recv))
	}
	var b ErrorBreakdown
	b.Total = len(sent)
	for i := range sent {
		if sent[i] == recv[i] {
			continue
		}
		b.Errors++
		if sent[i] == 0 {
			b.ZeroToOne++
		} else {
			b.OneToZero++
		}
	}
	return b, nil
}

// Rate returns the total bit-error rate in [0,1].
func (b ErrorBreakdown) Rate() float64 {
	if b.Total == 0 {
		return 0
	}
	return float64(b.Errors) / float64(b.Total)
}

// RateZeroToOne returns the 0→1 error rate over all compared bits.
func (b ErrorBreakdown) RateZeroToOne() float64 {
	if b.Total == 0 {
		return 0
	}
	return float64(b.ZeroToOne) / float64(b.Total)
}

// RateOneToZero returns the 1→0 error rate over all compared bits.
func (b ErrorBreakdown) RateOneToZero() float64 {
	if b.Total == 0 {
		return 0
	}
	return float64(b.OneToZero) / float64(b.Total)
}

// BurstStats summarizes one direction's error bursts without materializing
// the burst list: the burst count, the number of length-one bursts, and the
// longest burst.
type BurstStats struct {
	Bursts, Singles, Max int
}

// SingleFraction returns the fraction of bursts of length one, 1 when there
// are no bursts (vacuously all-single-bit).
func (b BurstStats) SingleFraction() float64 {
	if b.Bursts == 0 {
		return 1
	}
	return float64(b.Singles) / float64(b.Bursts)
}

// flush closes the current run, if any, and resets it.
func (b *BurstStats) flush(run *int) {
	if *run == 0 {
		return
	}
	b.Bursts++
	if *run == 1 {
		b.Singles++
	}
	if *run > b.Max {
		b.Max = *run
	}
	*run = 0
}

// DirectionalBurstStats summarizes error bursts separately for each error
// direction: an error position counts toward 0→1 when sent[i]==0 and
// toward 1→0 otherwise, and positions of the other direction break a run,
// matching how a burst-oriented decoder would see each error class
// (Section 4.3 of the paper: eviction errors are bursty, latency-tail
// errors are isolated). It runs in one streaming pass: no masked copies of
// the bit vectors and no burst lists. TestDirectionalBurstStats pins it to
// the slice-based reference in bursts_test.go.
func DirectionalBurstStats(sent, recv []byte) (zeroOne, oneZero BurstStats) {
	runZO, runOZ := 0, 0
	for i := range sent {
		errAt := i < len(recv) && sent[i] != recv[i]
		if errAt && sent[i] == 0 {
			runZO++
		} else {
			zeroOne.flush(&runZO)
		}
		if errAt && sent[i] != 0 {
			runOZ++
		} else {
			oneZero.flush(&runOZ)
		}
	}
	zeroOne.flush(&runZO)
	oneZero.flush(&runOZ)
	return zeroOne, oneZero
}

// Histogram is a fixed-bin latency histogram used by the calibrate tool.
type Histogram struct {
	Min, Width  int
	Counts      []int
	under, over int
}

// NewHistogram creates a histogram of n bins of the given width starting at
// min.
func NewHistogram(min, width, n int) *Histogram {
	if width <= 0 || n <= 0 {
		panic("stats: invalid histogram shape")
	}
	return &Histogram{Min: min, Width: width, Counts: make([]int, n)}
}

// Add records one observation.
func (h *Histogram) Add(v int) {
	if v < h.Min {
		h.under++
		return
	}
	bin := (v - h.Min) / h.Width
	if bin >= len(h.Counts) {
		h.over++
		return
	}
	h.Counts[bin]++
}

// Total returns the number of observations, including out-of-range ones.
func (h *Histogram) Total() int {
	t := h.under + h.over
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Percentile returns the approximate p-quantile (0<=p<=1) as the lower edge
// of the bin containing it. Out-of-range observations clamp to Min or the
// top edge.
func (h *Histogram) Percentile(p float64) int {
	total := h.Total()
	if total == 0 {
		return h.Min
	}
	target := int(p * float64(total))
	cum := h.under
	if cum > target {
		return h.Min
	}
	for i, c := range h.Counts {
		cum += c
		if cum > target {
			return h.Min + i*h.Width
		}
	}
	return h.Min + len(h.Counts)*h.Width
}

// Mean returns the mean of in-range observations using bin centers; zero if
// empty.
func (h *Histogram) Mean() float64 {
	var n int
	var sum float64
	for i, c := range h.Counts {
		n += c
		center := float64(h.Min) + (float64(i)+0.5)*float64(h.Width)
		sum += center * float64(c)
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// BinaryEntropy returns H(p) = -p·log2(p) - (1-p)·log2(1-p), the entropy
// of a Bernoulli(p) source in bits.
func BinaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

// BSCCapacity returns the Shannon capacity of a binary symmetric channel
// with crossover probability p: C = 1 - H(p) bits per channel use. A
// covert channel's raw bit-rate times this factor bounds the information
// rate any coding scheme can extract at that error rate.
func BSCCapacity(p float64) float64 {
	if p < 0 {
		p = 0
	}
	if p > 0.5 {
		p = 1 - p
	}
	return 1 - BinaryEntropy(p)
}
