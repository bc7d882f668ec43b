package experiments

import (
	"fmt"

	"streamline/internal/hier"
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
				Run: func(_ int, seed uint64) (Out, error) {
					res, err := o.Engine.RunXYProbe(seed, x, y, n)
					if err != nil {
						return Out{}, err
					}
					mr := float64(res.ReceiverLevels[hier.DRAM]) / float64(n)
					return Out{Metrics: []float64{mr * 100}}, nil
				},
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
