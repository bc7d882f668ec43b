package runner

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// chainDeps builds the dependency shape the experiments emit: specs in
// point-major order, each rep of a point depending on the same rep of the
// previous point within its chain.
func chainDeps(points, reps int, chains [][]int) [][]int {
	deps := make([][]int, points*reps)
	for _, chain := range chains {
		for k := 1; k < len(chain); k++ {
			for r := 0; r < reps; r++ {
				deps[chain[k]*reps+r] = []int{chain[k-1]*reps + r}
			}
		}
	}
	return deps
}

// depShapes lists the dependency shapes the scheduler tests run over, for a
// points×reps sweep (points >= 7): independent specs, one chain, and two
// chains plus free specs.
func depShapes(points, reps int) []struct {
	name string
	deps [][]int
} {
	return []struct {
		name string
		deps [][]int
	}{
		{"nil-deps", nil},
		{"one-chain", chainDeps(points, reps, [][]int{{0, 1, 2, 3}})},
		{"two-chains-and-free", chainDeps(points, reps, [][]int{{0, 2, 4, 6}, {1, 3, 5}})},
	}
}

// TestSegmentsMatchExecute: dependencies constrain only the order runs
// start in, never their results — at every worker count, each dependency
// shape returns the same slice as the dependency-free serial sweep.
func TestSegmentsMatchExecute(t *testing.T) {
	specs := sweep("segments", 12, 3)
	ref, err := Execute(specs, nil, echo, Options{Root: 42, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range depShapes(12, 3) {
		for _, workers := range []int{1, 2, 3, 8} {
			got, err := Execute(specs, shape.deps, func(s Spec, seed uint64) ([3]uint64, error) {
				if (s.Point+s.Rep)%3 == 0 {
					time.Sleep(time.Duration(s.Rep) * 100 * time.Microsecond)
				}
				return echo(s, seed)
			}, Options{Root: 42, Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", shape.name, workers, err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("%s workers=%d: results differ from the dependency-free sweep", shape.name, workers)
			}
		}
	}
}

// TestSegmentsHonorDependencies: no spec starts before all its dependencies
// finished, at any worker count.
func TestSegmentsHonorDependencies(t *testing.T) {
	const points, reps = 8, 2
	specs := sweep("deporder", points, reps)
	deps := chainDeps(points, reps, [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}})
	var mu sync.Mutex
	finished := make(map[int]bool)
	for _, workers := range []int{2, 4, 16} {
		mu.Lock()
		for k := range finished {
			delete(finished, k)
		}
		mu.Unlock()
		_, err := Execute(specs, deps, func(s Spec, seed uint64) ([3]uint64, error) {
			idx := s.Point*reps + s.Rep
			mu.Lock()
			for _, d := range deps[idx] {
				if !finished[d] {
					mu.Unlock()
					return [3]uint64{}, fmt.Errorf("spec %d started before dependency %d finished", idx, d)
				}
			}
			mu.Unlock()
			time.Sleep(time.Duration((s.Point*7+s.Rep*13)%5) * 50 * time.Microsecond)
			mu.Lock()
			finished[idx] = true
			mu.Unlock()
			return echo(s, seed)
		}, Options{Root: 7, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

// TestSegmentsRejectForwardDeps: dependencies must reference earlier specs.
func TestSegmentsRejectForwardDeps(t *testing.T) {
	specs := sweep("fwd", 3, 1)
	for _, deps := range [][][]int{
		{{1}, nil, nil}, // forward
		{nil, {1}, nil}, // self
		{nil, {-1}, nil},
	} {
		if _, err := Execute(specs, deps, echo, Options{Workers: 1}); err == nil {
			t.Errorf("deps %v accepted", deps)
		}
	}
	if _, err := Execute(specs, [][]int{nil}, echo, Options{Workers: 1}); err == nil {
		t.Error("mismatched deps length accepted")
	}
}

// TestSegmentsErrorIsLowestIndex: when a tail of the sweep fails, including
// specs whose dependents can then never run, the sweep returns the lowest
// failing index's error at every worker count instead of waiting on them.
func TestSegmentsErrorIsLowestIndex(t *testing.T) {
	specs := sweep("segfail", 10, 1)
	boom := errors.New("boom")
	for _, shape := range depShapes(10, 1) {
		for _, workers := range []int{1, 4} {
			_, err := Execute(specs, shape.deps, func(s Spec, seed uint64) ([3]uint64, error) {
				if s.Point >= 6 {
					return [3]uint64{}, fmt.Errorf("point %d: %w", s.Point, boom)
				}
				return echo(s, seed)
			}, Options{Workers: workers})
			if err == nil || !errors.Is(err, boom) {
				t.Fatalf("%s workers=%d: err = %v", shape.name, workers, err)
			}
			if !strings.Contains(err.Error(), "point 6") {
				t.Fatalf("%s workers=%d: error should be the lowest failing index: %v", shape.name, workers, err)
			}
		}
	}
}

// TestSegmentsEventCounters: the hook sees monotonically complete run
// counts, and a skew-blocked sweep records stolen segments.
func TestSegmentsEventCounters(t *testing.T) {
	const points = 8
	specs := sweep("steal", points, 1)
	// One long chain plus independent specs: the chain pins one worker,
	// the other worker must steal the free specs.
	deps := chainDeps(points, 1, [][]int{{0, 1, 2, 3, 4}})
	var events []Event
	var calls atomic.Int64
	_, err := Execute(specs, deps, func(s Spec, seed uint64) ([3]uint64, error) {
		calls.Add(1)
		time.Sleep(200 * time.Microsecond)
		return echo(s, seed)
	}, Options{Workers: 2, Hook: func(e Event) {
		events = append(events, e) // hooks are serialized by contract
	}})
	if err != nil {
		t.Fatal(err)
	}
	if int(calls.Load()) != points || len(events) != points {
		t.Fatalf("ran %d specs, hook saw %d, want %d", calls.Load(), len(events), points)
	}
	last := events[len(events)-1]
	if last.Done != points {
		t.Fatalf("final Done = %d, want %d", last.Done, points)
	}
	prev := 0
	for _, e := range events {
		if e.Done != prev+1 {
			t.Fatalf("Done not monotone: %d after %d", e.Done, prev)
		}
		prev = e.Done
		if e.SegmentsStolen < 0 || e.SegmentsStolen > e.Done {
			t.Fatalf("implausible SegmentsStolen %d at done %d", e.SegmentsStolen, e.Done)
		}
	}
}
