package experiments

import (
	"fmt"

	"streamline/internal/hier"
	"streamline/internal/mem"
	"streamline/internal/params"
	"streamline/internal/pattern"
)

// planTable1 regenerates the paper's Table 1: the LLC miss-rate of N=1000
// accesses following the (x, y) strided pattern — every x-th cache line in
// a page, lines from y pages accessed before the next line of the same
// page — repeated five times. A high miss-rate means the pattern fools the
// hardware prefetchers. Each (x, y) cell is one point of the sweep.
func planTable1(o Opts) (*Plan, error) {
	const n = 1000
	reps := 5
	if o.Quick {
		reps = 2
	}
	var points []Point
	for x := 1; x <= 5; x++ {
		for y := 1; y <= 5; y++ {
			points = append(points, Point{
				Label: fmt.Sprintf("x=%d y=%d", x, y),
				Reps:  reps,
				// missRateXY drives the hierarchy directly (no Engine.Run),
				// so the Out cache is its only store path.
				Run: o.storedRun(fmt.Sprintf("table1 x=%d y=%d n=%d", x, y, n), func(rep int, seed uint64) (Out, error) {
					mr, err := missRateXY(seed, x, y, n)
					if err != nil {
						return Out{}, err
					}
					return Out{Metrics: []float64{mr * 100}}, nil
				}),
			})
		}
	}
	return &Plan{
		Points: points,
		Assemble: func(res [][]Out) (*Table, error) {
			t := &Table{
				ID:     "table1",
				Title:  "LLC miss-rate for the (x,y) access pattern (higher = fools prefetcher better)",
				Header: []string{"x\\y", "1", "2", "3", "4", "5"},
				Notes: []string{
					"paper: y=1 column 1.8-17.3%, x=1 row 1.8-3.7%, x=2 row ~7%, x>=3 & y>=2 >= 88%",
				},
			}
			for x := 1; x <= 5; x++ {
				row := []string{fmt.Sprintf("%d", x)}
				for y := 1; y <= 5; y++ {
					s := summarize(res[(x-1)*5+(y-1)], 0)
					row = append(row, fmt.Sprintf("%.1f%%", s.Mean))
				}
				t.Rows = append(t.Rows, row)
			}
			return t, nil
		},
	}, nil
}

// missRateXY measures the fraction of n demand accesses served by DRAM for
// the XY pattern on a fresh hierarchy.
func missRateXY(seed uint64, x, y, n int) (float64, error) {
	m := params.SkylakeE3()
	h, err := hier.New(m, hier.Options{Seed: seed})
	if err != nil {
		return 0, err
	}
	alloc := mem.NewAllocator(m.PageSize)
	// Enough pages that the pattern never wraps within n accesses.
	reg := alloc.Alloc(16 << 20)
	pat := pattern.NewXY(h.Geometry(), x, y, 0)
	now := uint64(0)
	misses := 0
	for i := 0; i < n; i++ {
		r := h.Access(0, reg.AddrAt(pat.Offset(uint64(i), reg.Size)), now)
		if r.Level == hier.DRAM {
			misses++
		}
		now += uint64(r.Latency) + 60
	}
	return float64(misses) / float64(n), nil
}
