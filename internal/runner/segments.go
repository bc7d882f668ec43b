// Work-stealing scheduling for Execute's parallel path (see DESIGN.md
// "Snapshot tree & work stealing"). A sweep whose runs fork from mid-run
// checkpoints (core.Config.Chain) is not embarrassingly parallel: a chain
// member must not start before the member it forks from has published its
// boundary, or it silently degrades to a cold run. Execute therefore takes
// the sweep as a DAG — each spec may depend on earlier specs — and
// schedules it over per-worker deques: a worker finishing a chain segment
// continues that chain locally (the checkpoint it forks from was just
// published by that worker), and idle workers steal unrelated ready specs from the front of
// other deques, so long dependency chains never serialize a sweep's tail.
// Independent specs are the DAG without edges.
package runner

import "sync"

// segQueue is the shared scheduling state of one parallel Execute call: one
// deque per worker plus the dependency bookkeeping, under a single mutex
// (runs last milliseconds to minutes; queue operations are noise).
type segQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	deques [][]int
	waits  []int   // unmet dependency count per spec
	succs  [][]int // dependents per spec
	// running counts specs taken but not yet finished; workers exit once
	// no spec is queued or running.
	running int
	// limit is the lowest failing index so far (the spec count while none
	// has failed); queued specs above it are dropped unrun.
	limit  int
	done   int
	stolen int
}

// take returns the next spec for worker self, waiting while other workers
// still run specs that may release more. ok is false once nothing is queued
// or running.
//
// The scheduling inner loop is annotated allocation-free: every deque
// operation reslices in place, so scheduling overhead stays queue-ops-only
// no matter how many specs a sweep has.
//
//detlint:hotpath
func (q *segQueue) take(self int) (idx int, stole bool, ok bool) {
	q.mu.Lock()         //detlint:allow hotpathalloc -- sync.Mutex lock/unlock does not allocate
	defer q.mu.Unlock() //detlint:allow hotpathalloc -- unlock on every return path; sync.Mutex does not allocate
	for {
		idx, stole, ok = q.pop(self)
		switch {
		case !ok && q.running == 0:
			return 0, false, false
		case !ok:
			q.cond.Wait() //detlint:allow hotpathalloc -- sync.Cond wait parks the goroutine without allocating
		case idx < q.limit:
			q.running++
			return idx, stole, true
		}
	}
}

// pop removes the newest entry of worker self's deque (depth-first down its
// chain), else the oldest entry of another worker's deque (stealing the
// start of someone else's backlog). Called with mu held.
//
//detlint:hotpath
func (q *segQueue) pop(self int) (idx int, stole bool, ok bool) {
	if d := q.deques[self]; len(d) > 0 {
		q.deques[self] = d[:len(d)-1]
		return d[len(d)-1], false, true
	}
	for off := 1; off < len(q.deques); off++ {
		victim := (self + off) % len(q.deques)
		if d := q.deques[victim]; len(d) > 0 {
			q.deques[victim] = d[1:]
			return d[0], true, true
		}
	}
	return 0, false, false
}
