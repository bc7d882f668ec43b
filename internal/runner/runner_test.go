package runner

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamline/internal/rng"
)

func sweep(experiment string, points, reps int) []Spec {
	var specs []Spec
	for p := 0; p < points; p++ {
		for r := 0; r < reps; r++ {
			specs = append(specs, Spec{Experiment: experiment, Point: p, Rep: r,
				Label: fmt.Sprintf("p%d", p)})
		}
	}
	return specs
}

// echo returns the derived seed plus a few PRNG draws, so any divergence in
// seeding or result placement shows up as a value mismatch.
func echo(s Spec, seed uint64) ([3]uint64, error) {
	x := rng.New(seed)
	return [3]uint64{seed, x.Uint64(), x.Uint64()}, nil
}

// TestWorkerCountInvariance is the core determinism property: the same
// sweep must produce the serial path's result slice at every worker count,
// for every dependency shape, regardless of how the scheduler interleaves
// runs.
func TestWorkerCountInvariance(t *testing.T) {
	specs := sweep("invariance", 13, 7)
	for _, shape := range depShapes(13, 7) {
		ref, err := Execute(specs, shape.deps, echo, Options{Root: 99, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 2, 3, 8, 64} {
			got, err := Execute(specs, shape.deps, func(s Spec, seed uint64) ([3]uint64, error) {
				// Jitter completion order so the test actually exercises
				// out-of-order reassembly.
				if (s.Point+s.Rep)%3 == 0 {
					time.Sleep(time.Duration(s.Rep) * 100 * time.Microsecond)
				}
				return echo(s, seed)
			}, Options{Root: 99, Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", shape.name, workers, err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("%s workers=%d: results differ from the serial path", shape.name, workers)
			}
		}
	}
}

// TestSeedsIgnoreWorkerIdentity: a spec's seed is a pure function of
// (root, experiment, point, rep).
func TestSeedsIgnoreWorkerIdentity(t *testing.T) {
	s := Spec{Experiment: "fig9", Point: 2, Rep: 1}
	if s.Seed(7) != s.Seed(7) {
		t.Fatal("Seed not deterministic")
	}
	if s.Seed(7) == s.Seed(8) {
		t.Fatal("root ignored")
	}
	other := Spec{Experiment: "fig10", Point: 2, Rep: 1}
	if s.Seed(7) == other.Seed(7) {
		t.Fatal("experiment id ignored")
	}
	labeled := s
	labeled.Label = "something"
	if s.Seed(7) != labeled.Seed(7) {
		t.Fatal("label must not feed the seed")
	}
}

func TestSeedsDistinctWithinSweep(t *testing.T) {
	specs := sweep("distinct", 50, 20)
	seen := map[uint64]Spec{}
	for _, s := range specs {
		seed := s.Seed(1)
		if prev, dup := seen[seed]; dup {
			t.Fatalf("specs %+v and %+v share seed %#x", s, prev, seed)
		}
		seen[seed] = s
	}
}

// TestErrorIsLowestIndex pins the error contract: the lowest-index failing
// spec's error comes back, wrapped, at every worker count and dependency
// shape — even when a higher failing spec finishes first.
func TestErrorIsLowestIndex(t *testing.T) {
	specs := sweep("errs", 10, 1)
	errBoom := errors.New("boom")
	boom := func(s Spec, seed uint64) (int, error) {
		if s.Point == 3 || s.Point == 7 {
			return 0, fmt.Errorf("point %d exploded: %w", s.Point, errBoom)
		}
		return s.Point, nil
	}
	for _, shape := range depShapes(10, 1) {
		for _, workers := range []int{1, 3, 4} {
			_, err := Execute(specs, shape.deps, boom, Options{Workers: workers})
			if !errors.Is(err, errBoom) {
				t.Fatalf("%s workers=%d: want the run's error, got %v", shape.name, workers, err)
			}
			if !strings.Contains(err.Error(), "point 3 exploded") {
				t.Fatalf("%s workers=%d: want lowest-index error, got %v", shape.name, workers, err)
			}
		}
	}
}

// TestPanicBecomesSpecError pins panic containment: a run that panics
// fails its sweep with a *PanicError naming the spec, at every worker
// count and dependency shape, instead of killing the process.
func TestPanicBecomesSpecError(t *testing.T) {
	specs := sweep("panics", 8, 1)
	fn := func(s Spec, seed uint64) (int, error) {
		if s.Point == 5 {
			panic(fmt.Sprintf("point %d blew up", s.Point))
		}
		return s.Point, nil
	}
	for _, shape := range depShapes(8, 1) {
		for _, workers := range []int{1, 3} {
			_, err := Execute(specs, shape.deps, fn, Options{Workers: workers})
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("%s workers=%d: want a *PanicError, got %v", shape.name, workers, err)
			}
			if !strings.Contains(err.Error(), "panics point 5 rep 0: panic: point 5 blew up") {
				t.Errorf("%s workers=%d: error %q does not name the panicking spec", shape.name, workers, err)
			}
			if !strings.Contains(string(pe.Stack), "TestPanicBecomesSpecError") {
				t.Errorf("%s workers=%d: stack does not reach the panicking function:\n%s", shape.name, workers, pe.Stack)
			}
		}
	}
}

func TestErrorStopsFeedingSerial(t *testing.T) {
	var calls atomic.Int64
	specs := sweep("stop", 10, 1)
	_, err := Execute(specs, nil, func(s Spec, seed uint64) (int, error) {
		calls.Add(1)
		if s.Point == 2 {
			return 0, errors.New("dead")
		}
		return 0, nil
	}, Options{Workers: 1})
	if err == nil {
		t.Fatal("no error")
	}
	if calls.Load() != 3 {
		t.Fatalf("serial path ran %d specs after failure, want 3", calls.Load())
	}
}

func TestHookSeesEveryRun(t *testing.T) {
	specs := sweep("hooked", 6, 3)
	for _, workers := range []int{1, 4} {
		var events []Event
		_, err := Execute(specs, nil, echo, Options{Workers: workers, Hook: func(e Event) {
			events = append(events, e)
		}})
		if err != nil {
			t.Fatal(err)
		}
		if len(events) != len(specs) {
			t.Fatalf("workers=%d: %d events for %d specs", workers, len(events), len(specs))
		}
		seen := map[int]bool{}
		for i, e := range events {
			if e.Done != i+1 || e.Total != len(specs) {
				t.Fatalf("workers=%d: event %d has Done=%d Total=%d", workers, i, e.Done, e.Total)
			}
			if seen[e.Index] {
				t.Fatalf("workers=%d: index %d reported twice", workers, e.Index)
			}
			seen[e.Index] = true
		}
	}
}

func TestProgressHookOutput(t *testing.T) {
	var buf bytes.Buffer
	_, err := Execute(sweep("prog", 2, 1), nil, echo, Options{Workers: 1, Hook: Progress(&buf)})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"[1/2]", "[2/2]", "prog: p0 rep 0 done", "prog: p1 rep 0 done"} {
		if !strings.Contains(out, want) {
			t.Fatalf("progress output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "stolen") {
		t.Fatalf("serial progress should not mention stealing:\n%s", out)
	}
}

// TestProgressHookStealSuffix: the stock Progress hook surfaces work
// stealing once it happens, and stays silent about it before that.
func TestProgressHookStealSuffix(t *testing.T) {
	var buf bytes.Buffer
	hook := Progress(&buf)
	hook(Event{Spec: Spec{Experiment: "seg"}, Done: 3, Total: 9})
	if strings.Contains(buf.String(), "stolen") {
		t.Fatalf("no steals yet, but output mentions stealing:\n%s", buf.String())
	}
	buf.Reset()
	hook(Event{Spec: Spec{Experiment: "seg"}, Done: 7, Total: 9, SegmentsStolen: 2})
	if !strings.Contains(buf.String(), "[2 stolen]") {
		t.Fatalf("output missing steal count:\n%s", buf.String())
	}
}

// TestProgressStoreLabels: Progress labels a line [hit] or [miss] only
// from store traffic it can attribute to that run. On one worker every
// run's traffic is its own, and the labels are exact. On two workers the
// second run's hit lands while the first is still running, so neither
// run's window can be split and no line may carry a label; when both
// overlapping runs only hit, both lines are [hit].
func TestProgressStoreLabels(t *testing.T) {
	specs := sweep("store", 2, 1)
	var hits, misses atomic.Uint64
	counters := func() (uint64, uint64) { return hits.Load(), misses.Load() }

	var buf bytes.Buffer
	serial := func(s Spec, seed uint64) (int, error) {
		if s.Point == 0 {
			misses.Add(1)
		} else {
			hits.Add(1)
		}
		return 0, nil
	}
	if _, err := Execute(specs, nil, serial, Options{Workers: 1, Hook: Progress(&buf),
		StoreCounters: counters}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || !strings.HasSuffix(lines[0], " [miss]") || !strings.HasSuffix(lines[1], " [hit]") {
		t.Fatalf("serial labels wrong, want p0 [miss] then p1 [hit]:\n%s", buf.String())
	}

	// Both runs are in flight at once (each worker holds one); p1 hits the
	// store first, then p0 misses and completes, and p1 returns only after
	// p0's line is written.
	buf.Reset()
	var started sync.WaitGroup
	started.Add(2)
	p1Hit, p0Reported := make(chan struct{}), make(chan struct{})
	progress := Progress(&buf)
	hook := func(e Event) {
		progress(e)
		if e.Spec.Point == 0 {
			close(p0Reported)
		}
	}
	overlapped := func(s Spec, seed uint64) (int, error) {
		started.Done()
		started.Wait()
		if s.Point == 0 {
			<-p1Hit
			misses.Add(1)
		} else {
			hits.Add(1)
			close(p1Hit)
			<-p0Reported
		}
		return 0, nil
	}
	if _, err := Execute(specs, nil, overlapped, Options{Workers: 2, Hook: hook,
		StoreCounters: counters}); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); strings.Contains(out, "[hit") || strings.Contains(out, "[miss") {
		t.Fatalf("parallel progress labelled runs it cannot attribute:\n%s", out)
	}

	buf.Reset()
	started.Add(2)
	bothHit := func(s Spec, seed uint64) (int, error) {
		started.Done()
		started.Wait()
		hits.Add(1)
		return 0, nil
	}
	if _, err := Execute(specs, nil, bothHit, Options{Workers: 2, Hook: Progress(&buf),
		StoreCounters: counters}); err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || !strings.HasSuffix(lines[0], " [hit]") || !strings.HasSuffix(lines[1], " [hit]") {
		t.Fatalf("parallel all-hit runs should both be [hit]:\n%s", buf.String())
	}
}

// TestHookDoesNotInfluenceResults pins that a progress hook is observational
// only: the same sweep returns identical results with a nil hook, the stock
// Progress hook, and at any worker count and dependency shape —
// Event.Elapsed, Event.SegmentsStolen and the store counters must never
// feed back into what Execute returns.
func TestHookDoesNotInfluenceResults(t *testing.T) {
	specs := sweep("hooktest", 8, 4)
	fn := func(spec Spec, seed uint64) ([4]uint64, error) {
		x := rng.New(seed)
		var out [4]uint64
		for i := range out {
			out[i] = x.Uint64()
		}
		return out, nil
	}
	ref, err := Execute(specs, nil, fn, Options{Root: 42, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range depShapes(8, 4) {
		for _, opt := range []Options{
			{Root: 42, Workers: 1, Hook: Progress(io.Discard)},
			{Root: 42, Workers: 8},
			{Root: 42, Workers: 8, Hook: Progress(io.Discard)},
			{Root: 42, Workers: 8, Hook: Progress(io.Discard), StoreCounters: func() (uint64, uint64) { return 1, 2 }},
		} {
			got, err := Execute(specs, shape.deps, fn, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("%s: results differ for workers=%d hook=%v", shape.name, opt.Workers, opt.Hook != nil)
			}
		}
	}
}

func TestEmptySweep(t *testing.T) {
	res, err := Execute(nil, nil, echo, Options{})
	if err != nil || len(res) != 0 {
		t.Fatalf("empty sweep: %v, %v", res, err)
	}
}
