package sched

import (
	"testing"
)

// fixed is an agent that performs n steps of the given cost, recording the
// times it was stepped at.
type fixed struct {
	name  string
	cost  uint64
	n     int
	times []uint64
}

func (f *fixed) Name() string { return f.name }

func (f *fixed) Step(now uint64) (uint64, bool) {
	f.times = append(f.times, now)
	f.n--
	return f.cost, f.n <= 0
}

func TestRunRequiresAgents(t *testing.T) {
	var s Scheduler
	if _, err := s.Run(); err == nil {
		t.Fatal("empty scheduler ran")
	}
	s.AddBackground(&fixed{name: "bg", cost: 1, n: 1}, 0)
	if _, err := s.Run(); err == nil {
		t.Fatal("background-only scheduler ran")
	}
}

func TestSingleAgentRunsToCompletion(t *testing.T) {
	a := &fixed{name: "a", cost: 10, n: 5}
	var s Scheduler
	s.Add(a, 0)
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end != 50 {
		t.Fatalf("end = %d, want 50", end)
	}
	if len(a.times) != 5 || a.times[4] != 40 {
		t.Fatalf("step times = %v", a.times)
	}
}

func TestLowestClockFirst(t *testing.T) {
	slow := &fixed{name: "slow", cost: 100, n: 3}
	fast := &fixed{name: "fast", cost: 10, n: 30}
	var s Scheduler
	s.Add(slow, 0)
	s.Add(fast, 0)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// The fast agent must be stepped ~10 times per slow step: check the
	// fast agent's 10th step happens before the slow agent's 2nd.
	if fast.times[9] >= slow.times[2] {
		t.Fatalf("interleaving wrong: fast[9]=%d slow[2]=%d", fast.times[9], slow.times[2])
	}
}

func TestStartOffsets(t *testing.T) {
	a := &fixed{name: "a", cost: 10, n: 2}
	b := &fixed{name: "b", cost: 10, n: 2}
	var s Scheduler
	s.Add(a, 0)
	s.Add(b, 1000)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if b.times[0] != 1000 {
		t.Fatalf("delayed agent first step at %d, want 1000", b.times[0])
	}
	if a.times[1] >= b.times[0] {
		t.Fatalf("agent a should finish before b starts: %v vs %v", a.times, b.times)
	}
}

// zeroCost returns zero cost; the scheduler must still make progress.
type zeroCost struct{ n int }

func (z *zeroCost) Name() string { return "zero" }
func (z *zeroCost) Step(uint64) (uint64, bool) {
	z.n--
	return 0, z.n <= 0
}

func TestZeroCostProgresses(t *testing.T) {
	var s Scheduler
	s.Add(&zeroCost{n: 100}, 0)
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end != 100 {
		t.Fatalf("end = %d, want 100 (one cycle per zero-cost step)", end)
	}
}

func TestBackgroundStopsWithRequired(t *testing.T) {
	req := &fixed{name: "req", cost: 10, n: 10}
	bg := &fixed{name: "bg", cost: 1, n: 1 << 30} // effectively infinite
	var s Scheduler
	s.Add(req, 0)
	s.AddBackground(bg, 0)
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end != 100 {
		t.Fatalf("end = %d, want 100", end)
	}
	// Background agent ran alongside but did not prolong the run: its
	// last step time is near the end time.
	last := bg.times[len(bg.times)-1]
	if last > end {
		t.Fatalf("background ran past the end: %d > %d", last, end)
	}
	if len(bg.times) < 90 {
		t.Fatalf("background barely ran: %d steps", len(bg.times))
	}
}

func TestMaxStepsGuard(t *testing.T) {
	s := Scheduler{MaxSteps: 10}
	s.Add(&fixed{name: "a", cost: 1, n: 1000}, 0)
	if _, err := s.Run(); err != ErrMaxSteps {
		t.Fatalf("err = %v, want ErrMaxSteps", err)
	}
	var st State
	s.Snapshot(&st)
	if st.Steps != 10 {
		t.Fatalf("steps = %d", st.Steps)
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	run := func() []uint64 {
		a := &fixed{name: "a", cost: 10, n: 5}
		b := &fixed{name: "b", cost: 10, n: 5}
		var s Scheduler
		s.Add(a, 0)
		s.Add(b, 0)
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return append(append([]uint64{}, a.times...), b.times...)
	}
	x, y := run(), run()
	for i := range x {
		if x[i] != y[i] {
			t.Fatal("tie-breaking not deterministic")
		}
	}
}
