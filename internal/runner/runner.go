// Package runner executes experiment sweeps across a worker pool without
// giving up bit-for-bit reproducibility.
//
// A sweep is a slice of Specs — (experiment id, parameter point, repetition)
// tuples — plus one pure function that executes a single spec. Each run's
// PRNG seed is derived hierarchically from the root seed and the spec alone
// (rng.Derive; never from worker identity or completion order), and results
// are reassembled in spec order before they reach the caller. Aggregations
// computed over the returned slice — confidence intervals, error
// breakdowns, table rows — are therefore identical whether the sweep ran on
// one worker or sixteen.
//
// Specs may depend on earlier specs (a chain of checkpoint forks is one
// such dependency path); Execute honours those edges on every path and
// schedules the parallel one with work stealing (segments.go). The zero
// worker count selects GOMAXPROCS; Workers == 1 runs the specs serially, in
// index order, on the calling goroutine, which is the reference path the
// golden conformance tests compare every other worker count against.
package runner

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"streamline/internal/rng"
)

// Spec identifies one simulation run within a sweep.
type Spec struct {
	// Experiment is the experiment id (e.g. "fig9"); it feeds the seed
	// derivation, so equal points of different experiments never share
	// streams.
	Experiment string
	// Point indexes the parameter point within the experiment.
	Point int
	// Rep indexes the repetition within the point.
	Rep int
	// Label is a human-readable description for progress reporting only;
	// it does not contribute to the seed.
	Label string
}

// Seed derives this run's PRNG seed from the root seed. The derivation
// depends only on (Experiment, Point, Rep).
func (s Spec) Seed(root uint64) uint64 {
	return rng.Derive(root, rng.HashString(s.Experiment), uint64(s.Point), uint64(s.Rep))
}

// Event reports one completed run to the progress hook.
type Event struct {
	// Spec is the completed run.
	Spec Spec
	// Index is the run's position in spec order.
	Index int
	// Done is the number of runs completed so far, Total the sweep size.
	Done, Total int
	// Elapsed is the run's wall time (informational only — it never
	// influences results).
	Elapsed time.Duration
	// Err is the run's error, if any.
	Err error
	// SegmentsStolen counts the completed specs a worker stole from
	// another worker's deque; always zero on the serial path.
	// Informational only — like Elapsed, it never influences results.
	SegmentsStolen int
	// StoreHits and StoreMisses count the result-store hits and misses
	// that happened while this run executed (Options.StoreCounters sampled
	// when it started and when it finished). On the serial path that is
	// exactly the run's own traffic. A parallel run's window also holds
	// the traffic of runs that overlapped it, so where both counters moved
	// the window cannot be split and both are zero. A one-sided window
	// still says what the run did: a run simulates only after a miss, so
	// a window without misses means it simulated nothing, and one without
	// hits means the store served it nothing. Zero when no store is wired.
	// Informational only — served results are bit-identical to simulated
	// ones by the store's keying contract.
	StoreHits, StoreMisses uint64
}

// Hook observes run completions. It is called from worker goroutines but
// never concurrently, and completion order is scheduling-dependent — hooks
// must not feed results back into the sweep.
type Hook func(Event)

// Options configures an Execute call.
type Options struct {
	// Root is the sweep's base seed.
	Root uint64
	// Workers sets the pool size: 0 selects GOMAXPROCS, 1 runs serially
	// on the calling goroutine. Results are identical for any value.
	Workers int
	// Hook, when non-nil, receives one Event per completed run.
	Hook Hook
	// StoreCounters, when non-nil, supplies cumulative result-store
	// (hits, misses) totals; Execute samples it around each run to fill
	// the Event's store counters. A function keeps the runner independent
	// of the store's owner.
	StoreCounters func() (hits, misses uint64)
}

// storeSample reads StoreCounters, or zeros when no store is wired.
func (o *Options) storeSample() (hits, misses uint64) {
	if o.StoreCounters == nil {
		return 0, 0
	}
	return o.StoreCounters()
}

// storeWindow returns the store traffic since the sample (hits0, misses0)
// taken when a run started. shared marks a parallel run, whose window also
// holds the traffic of overlapping runs: when both counters moved, the
// window cannot be split between them, and neither is reported.
func (o *Options) storeWindow(hits0, misses0 uint64, shared bool) (hits, misses uint64) {
	h, m := o.storeSample()
	hits, misses = h-hits0, m-misses0
	if shared && hits > 0 && misses > 0 {
		return 0, 0
	}
	return hits, misses
}

// Func executes one spec. It must be pure: all randomness derived from
// seed, no shared mutable state, so that the sweep's results do not depend
// on how runs interleave.
type Func[T any] func(spec Spec, seed uint64) (T, error)

// PanicError is the error a spec reports when its run panicked: the runner
// recovers the panic on the goroutine that ran the spec, so one bad run
// fails its sweep cleanly instead of killing the process that hosts it.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// call runs fn on one spec, turning a panic into that spec's *PanicError.
func call[T any](fn Func[T], s Spec, root uint64) (out T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	return fn(s, s.Seed(root))
}

// Execute runs every spec through fn and returns the results in spec
// order, honouring dependencies: deps[i] lists spec indices that must
// complete before spec i starts. Every dependency must point to an earlier
// index (the experiments emit chain segments in ascending prefix order),
// which makes plain index order — the serial path — a valid schedule and
// rules out cycles by construction. A nil deps slice (or nil entries)
// means the specs are independent.
//
// On failure Execute returns the error of the lowest-index failing spec,
// independent of scheduling; a spec whose run panics fails with a
// *PanicError. Once a failure is observed, specs above the lowest failing
// index are skipped.
func Execute[T any](specs []Spec, deps [][]int, fn Func[T], opt Options) ([]T, error) {
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
	if workers == 1 {
		// Index order satisfies every dependency; this is the reference
		// path the golden conformance tests pin the parallel path against.
		for i, s := range specs {
			// The stopwatch (two small closures) is skipped entirely when
			// nobody observes it: hookless serial sweeps — the bench
			// harness's steady state — stay allocation-free here.
			var elapsed stopfunc
			var hits0, misses0 uint64
			if opt.Hook != nil {
				elapsed = stopwatch()
				hits0, misses0 = opt.storeSample()
			}
			out, err := call(fn, s, opt.Root)
			if opt.Hook != nil {
				e := Event{Spec: s, Index: i, Done: i + 1, Total: n,
					Elapsed: elapsed(), Err: err}
				e.StoreHits, e.StoreMisses = opt.storeWindow(hits0, misses0, false)
				opt.Hook(e)
			}
			if err != nil {
				return nil, specError(s, err)
			}
			results[i] = out
		}
		return results, nil
	}

	q := &segQueue{
		deques: make([][]int, workers),
		waits:  make([]int, n),
		succs:  make([][]int, n),
		limit:  n,
	}
	q.cond = sync.NewCond(&q.mu)
	for i, ds := range deps {
		q.waits[i] = len(ds)
		for _, d := range ds {
			q.succs[d] = append(q.succs[d], i)
		}
	}
	// Seed the deques round-robin with the initially ready specs, in index
	// order, so the sweep's head spreads across the pool.
	w := 0
	for i := 0; i < n; i++ {
		if q.waits[i] == 0 {
			q.deques[w%workers] = append(q.deques[w%workers], i)
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
				i, stole, ok := q.take(self)
				if !ok {
					return
				}
				s := specs[i]
				var elapsed stopfunc
				var hits0, misses0 uint64
				if opt.Hook != nil {
					elapsed = stopwatch()
					hits0, misses0 = opt.storeSample()
				}
				out, err := call(fn, s, opt.Root)
				q.mu.Lock()
				q.done++
				if stole {
					q.stolen++
				}
				if err != nil {
					errs[i] = err
					// Specs below the lowest failing index keep running,
					// so the error returned does not depend on scheduling.
					q.limit = min(q.limit, i)
				} else {
					results[i] = out
					// Newly ready successors continue on this worker: a
					// chain's next segment forks from the checkpoint this
					// worker just published.
					for _, succ := range q.succs[i] {
						q.waits[succ]--
						if q.waits[succ] == 0 {
							q.deques[self] = append(q.deques[self], succ)
						}
					}
				}
				q.running--
				if opt.Hook != nil {
					// Under the lock: hooks are never called concurrently.
					e := Event{Spec: s, Index: i, Done: q.done, Total: n,
						Elapsed: elapsed(), Err: err, SegmentsStolen: q.stolen}
					e.StoreHits, e.StoreMisses = opt.storeWindow(hits0, misses0, true)
					opt.Hook(e)
				}
				q.mu.Unlock()
				q.cond.Broadcast()
			}
		}(w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, specError(specs[i], err)
		}
	}
	return results, nil
}

// specError names the failing spec in its run's error.
func specError(s Spec, err error) error {
	return fmt.Errorf("%s point %d rep %d: %w", s.Experiment, s.Point, s.Rep, err)
}

// stopfunc reports the elapsed wall time since its stopwatch started.
type stopfunc func() time.Duration

// stopwatch starts timing a run and returns a function reporting the
// elapsed wall time. It is the package's only clock access, and it feeds
// Event.Elapsed exclusively — progress display, never results (results
// come back in spec order regardless of how long each run took).
func stopwatch() stopfunc {
	start := time.Now() //detlint:allow wallclock -- informational per-run timing for Event.Elapsed; never reaches results
	return func() time.Duration {
		return time.Since(start) //detlint:allow wallclock -- informational per-run timing for Event.Elapsed; never reaches results
	}
}

// Progress returns a Hook that writes one line per completed run to w,
// with the run's label, wall time, and sweep completion count. Parallel
// sweeps additionally report work stealing: once any spec has been stolen,
// each line carries the running count of specs a worker took from another
// worker's deque. When a result store is wired (Options.StoreCounters),
// a line reports whether the run was served from the store ([hit]) or
// simulated and written back ([miss]) from the event's store window; a
// parallel run whose window mixes hits and misses of overlapping runs
// carries no label (see Event.StoreHits).
func Progress(w io.Writer) Hook {
	return func(e Event) {
		status := "done"
		if e.Err != nil {
			status = "FAILED: " + e.Err.Error()
		}
		label := e.Spec.Label
		if label == "" {
			label = fmt.Sprintf("point %d", e.Spec.Point)
		}
		steal := ""
		if e.SegmentsStolen > 0 {
			steal = fmt.Sprintf(" [%d stolen]", e.SegmentsStolen)
		}
		store := ""
		hits, misses := e.StoreHits > 0, e.StoreMisses > 0
		switch {
		case hits && misses:
			// A spec that ran several channel runs (e.g. an averaged point)
			// can land on both sides of the store in one event.
			store = " [hit+miss]"
		case hits:
			store = " [hit]"
		case misses:
			store = " [miss]"
		}
		fmt.Fprintf(w, "[%d/%d] %s: %s rep %d %s (%s)%s%s\n",
			e.Done, e.Total, e.Spec.Experiment, label, e.Spec.Rep, status,
			e.Elapsed.Round(time.Millisecond), steal, store)
	}
}
