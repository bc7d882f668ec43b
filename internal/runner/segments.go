// Work-stealing segment execution (see DESIGN.md "Snapshot tree & work
// stealing"). A sweep whose runs fork from mid-run checkpoints
// (core.Config.Chain) is no longer embarrassingly parallel: a chain member
// must not start before the member it forks from has published its
// boundary, or it silently degrades to a cold run. ExecuteSegments makes
// that ordering explicit — each spec may depend on earlier specs — and
// schedules the resulting DAG over per-worker deques with work stealing, so
// the long dependency chains that used to serialize a sweep's tail keep
// every worker busy: a worker finishing a chain segment continues that
// chain locally (the forked state is hot in its simulator pool), and idle
// workers steal unrelated ready specs from the front of other deques.
package runner

import (
	"fmt"
	"runtime"
	"sync"
)

// ExecuteSegments runs every spec through fn, honouring dependencies:
// deps[i] lists spec indices that must complete before spec i starts. Every
// dependency must point to an earlier index (the experiments emit chain
// segments in ascending prefix order), which makes the serial path — plain
// index order, identical to Execute — a valid schedule, and rules out
// cycles by construction. A nil deps slice (or nil entries) means no
// constraints. Results come back in spec order; on failure the error of the
// lowest-index failing spec is returned and unstarted specs are skipped.
// As under Execute, a panicking spec fails with a *PanicError.
func ExecuteSegments[T any](specs []Spec, deps [][]int, fn Func[T], opt Options) ([]T, error) {
	n := len(specs)
	results := make([]T, n)
	if n == 0 {
		return results, nil
	}
	if deps != nil && len(deps) != n {
		return nil, fmt.Errorf("runner: %d specs but %d dependency lists", n, len(deps))
	}
	for i, ds := range deps {
		for _, d := range ds {
			if d < 0 || d >= i {
				return nil, fmt.Errorf("runner: spec %d depends on %d; dependencies must point to earlier specs", i, d)
			}
		}
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	stamp := opt.stamper()
	if workers == 1 {
		// Index order satisfies every dependency; this is the reference
		// path the golden conformance tests pin the parallel path against.
		for i, s := range specs {
			var elapsed stopfunc
			if opt.Hook != nil {
				elapsed = stopwatch()
			}
			out, err := call(fn, s, opt.Root)
			if opt.Hook != nil {
				opt.Hook(stamp(Event{Spec: s, Index: i, Done: i + 1, Total: n,
					Elapsed: elapsed(), Err: err, SegmentsDone: i + 1}))
			}
			if err != nil {
				return nil, fmt.Errorf("%s point %d rep %d: %w",
					s.Experiment, s.Point, s.Rep, err)
			}
			results[i] = out
		}
		return results, nil
	}

	st := &segQueue{
		deques:  make([][]int, workers),
		waits:   make([]int, n),
		succs:   make([][]int, n),
		pending: n,
	}
	st.cond = sync.NewCond(&st.mu)
	for i, ds := range deps {
		st.waits[i] = len(ds)
		for _, d := range ds {
			st.succs[d] = append(st.succs[d], i)
		}
	}
	// Seed the deques round-robin with the initially ready specs, in index
	// order, so the sweep's head spreads across the pool.
	w := 0
	for i := 0; i < n; i++ {
		if st.waits[i] == 0 {
			st.deques[w%workers] = append(st.deques[w%workers], i)
			w++
		}
	}

	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			for {
				i, stole, ok := st.take(self)
				if !ok {
					return
				}
				s := specs[i]
				var elapsed stopfunc
				if opt.Hook != nil {
					elapsed = stopwatch()
				}
				out, err := call(fn, s, opt.Root)
				st.mu.Lock()
				st.done++
				if stole {
					st.stolen++
				}
				if err != nil {
					errs[i] = err
					st.failed = true
				} else {
					results[i] = out
					// Newly ready successors continue on this worker: a
					// chain's next segment forks from state this worker
					// just parked in the simulator pool.
					for _, succ := range st.succs[i] {
						st.waits[succ]--
						if st.waits[succ] == 0 {
							st.deques[self] = append(st.deques[self], succ)
						}
					}
				}
				st.pending--
				if opt.Hook != nil {
					// Under the lock: hooks are never called concurrently.
					opt.Hook(stamp(Event{Spec: s, Index: i, Done: st.done, Total: n,
						Elapsed: elapsed(), Err: err,
						SegmentsDone: st.done, SegmentsStolen: st.stolen}))
				}
				st.mu.Unlock()
				st.cond.Broadcast()
			}
		}(w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			s := specs[i]
			return nil, fmt.Errorf("%s point %d rep %d: %w",
				s.Experiment, s.Point, s.Rep, err)
		}
	}
	return results, nil
}

// segQueue is the shared scheduling state of one ExecuteSegments call: one
// deque per worker plus the dependency bookkeeping, under a single mutex
// (runs last milliseconds to minutes; queue operations are noise).
type segQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	deques [][]int
	waits  []int   // unmet dependency count per spec
	succs  [][]int // dependents per spec
	// pending counts specs not yet finished (running or queued or blocked);
	// workers exit when it reaches zero or a failure is observed.
	pending int
	done    int
	stolen  int
	failed  bool
}

// take returns the next spec for worker self: the newest entry of its own
// deque (depth-first down its chain), else the oldest entry of another
// worker's deque (stealing the start of someone else's backlog), else it
// waits for work. ok is false when the sweep is complete or failed.
//
// The scheduling inner loop is annotated allocation-free: every deque
// operation reslices in place, so scheduling overhead stays queue-ops-only
// no matter how many segments a sweep has.
//
//detlint:hotpath
func (q *segQueue) take(self int) (idx int, stole bool, ok bool) {
	q.mu.Lock()         //detlint:allow hotpathalloc -- sync.Mutex lock/unlock does not allocate
	defer q.mu.Unlock() //detlint:allow hotpathalloc -- unlock on every return path; sync.Mutex does not allocate
	for {
		if q.failed || q.pending == 0 {
			return 0, false, false
		}
		if d := q.deques[self]; len(d) > 0 {
			idx = d[len(d)-1]
			q.deques[self] = d[:len(d)-1]
			return idx, false, true
		}
		for off := 1; off < len(q.deques); off++ {
			victim := (self + off) % len(q.deques)
			if d := q.deques[victim]; len(d) > 0 {
				idx = d[0]
				q.deques[victim] = d[1:]
				return idx, true, true
			}
		}
		q.cond.Wait() //detlint:allow hotpathalloc -- sync.Cond wait parks the goroutine without allocating
	}
}
