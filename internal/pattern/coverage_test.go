package pattern

import "streamline/internal/mem"

// Coverage summarizes how a pattern maps onto an LLC in one lap.
type Coverage struct {
	SetsTouched   int     // distinct LLC sets used
	TotalSets     int     // LLC set count
	Fraction      float64 // SetsTouched / TotalSets
	DistinctLines int     // distinct lines accessed in the sampled window
	// BufferLines estimates how many in-flight lines the LLC can hold
	// for this pattern: sets touched times ways.
	BufferLines int
}

// AnalyzeCoverage walks bits lap indices of the pattern over an array of
// arrSize bytes mapped at base, and reports LLC set coverage for a cache
// with llcSets sets and llcWays ways.
func AnalyzeCoverage(p Pattern, g mem.Geometry, base mem.Addr, arrSize int, bits uint64, llcSets, llcWays int) Coverage {
	sets := make([]bool, llcSets)
	lines := make(map[mem.Line]struct{}, bits)
	mask := uint64(llcSets - 1)
	for i := uint64(0); i < bits; i++ {
		a := base + mem.Addr(p.Offset(i, arrSize))
		l := g.LineOf(a)
		sets[uint64(l)&mask] = true
		lines[l] = struct{}{}
	}
	cov := Coverage{TotalSets: llcSets, DistinctLines: len(lines)}
	for _, used := range sets {
		if used {
			cov.SetsTouched++
		}
	}
	cov.Fraction = float64(cov.SetsTouched) / float64(llcSets)
	cov.BufferLines = cov.SetsTouched * llcWays
	return cov
}
