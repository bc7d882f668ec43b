// Package sched interleaves simulated processes ("agents") deterministically
// on a shared cycle clock.
//
// Each agent owns a local clock; the scheduler always steps the agent whose
// clock is lowest, so shared-state mutations (cache accesses) happen in
// global time order without goroutines or locks. This is what makes the
// asynchronous sender/receiver dynamics of the paper (gap growth, overtake,
// coarse-grained synchronization) reproducible bit-for-bit.
//
// Agents are either required (the run ends when all of them finish) or
// background (noise generators that run as long as any required agent is
// alive).
package sched

import (
	"errors"
	"fmt"
)

// Agent is a resumable simulated process. Step executes the agent's next
// atomic operation (one channel bit, one noise burst, ...) given its local
// time, and returns the cycles consumed and whether the agent finished.
// A zero cost is treated as one cycle so the simulation always advances.
type Agent interface {
	Name() string
	Step(now uint64) (cost uint64, done bool)
}

type entry struct {
	agent    Agent
	time     uint64
	done     bool
	required bool
}

// Scheduler runs a set of agents to completion. The zero value is ready to
// use.
type Scheduler struct {
	entries []entry
	// MaxSteps bounds the total number of Step calls as a runaway guard;
	// 0 means no bound.
	MaxSteps uint64
	steps    uint64
	stopping bool
}

// ErrMaxSteps is returned when the step budget is exhausted before all
// required agents finish.
var ErrMaxSteps = errors.New("sched: step budget exhausted")

// ErrPaused is returned by Run/Resume when an agent called Stop mid-run.
// The paused step is discarded entirely — no time, no step count, no done
// flag — so the scheduler state is exactly "about to step that agent", and
// Resume continues as if the pause never happened.
var ErrPaused = errors.New("sched: paused by agent")

// Add registers a required agent starting at local time start.
func (s *Scheduler) Add(a Agent, start uint64) {
	s.entries = append(s.entries, entry{agent: a, time: start, required: true})
}

// Reserve pre-sizes the roster for n agents, so a run's Add calls do not
// grow the slice one doubling at a time. Overshooting is harmless.
func (s *Scheduler) Reserve(n int) {
	if cap(s.entries) >= n {
		return
	}
	entries := make([]entry, len(s.entries), n)
	copy(entries, s.entries)
	s.entries = entries
}

// AddBackground registers a background agent that runs only while required
// agents are still active.
func (s *Scheduler) AddBackground(a Agent, start uint64) {
	s.entries = append(s.entries, entry{agent: a, time: start})
}

// Stop requests a pause. It is called from inside an agent's Step; the
// calling agent must return immediately without side effects (its cost and
// done values are discarded), and Run/Resume returns ErrPaused with the
// scheduler positioned exactly before that step.
func (s *Scheduler) Stop() { s.stopping = true }

// State is a scheduler snapshot: the agents' local clocks and done flags
// (in Add order) plus the step counter. Together with the agents' own state
// it freezes a run mid-flight; Restore on a scheduler with the same agent
// roster resumes it bit-for-bit.
type State struct {
	Times []uint64
	Done  []bool
	Steps uint64
}

// Snapshot copies the scheduler's mutable state into st (slices are reused
// when they have capacity).
func (s *Scheduler) Snapshot(st *State) {
	st.Times = st.Times[:0]
	st.Done = st.Done[:0]
	for _, e := range s.entries {
		st.Times = append(st.Times, e.time)
		st.Done = append(st.Done, e.done)
	}
	st.Steps = s.steps
}

// Restore overwrites the scheduler's clocks, done flags, and step counter
// from a snapshot taken on a scheduler with an identical agent roster.
func (s *Scheduler) Restore(st *State) error {
	if len(st.Times) != len(s.entries) || len(st.Done) != len(s.entries) {
		return fmt.Errorf("sched: snapshot has %d agents, scheduler has %d",
			len(st.Times), len(s.entries))
	}
	for i := range s.entries {
		s.entries[i].time = st.Times[i]
		s.entries[i].done = st.Done[i]
	}
	s.steps = st.Steps
	return nil
}

// Run interleaves all agents until every required agent reports done. It
// returns the largest local time reached by any required agent (the
// wall-clock length of the run in cycles).
func (s *Scheduler) Run() (uint64, error) {
	s.steps = 0
	return s.run()
}

// Resume continues a paused or restored run without resetting the step
// counter.
func (s *Scheduler) Resume() (uint64, error) { return s.run() }

//detlint:hotpath
func (s *Scheduler) run() (uint64, error) {
	if len(s.entries) == 0 {
		return 0, fmt.Errorf("sched: no agents") //detlint:allow hotpathalloc -- error built only on the misuse path that aborts the run
	}
	required := 0
	for _, e := range s.entries {
		if e.required && !e.done {
			required++
		}
	}
	if required == 0 {
		return 0, fmt.Errorf("sched: no required agents") //detlint:allow hotpathalloc -- error built only on the misuse path that aborts the run
	}
	s.stopping = false
	for required > 0 {
		if s.MaxSteps > 0 && s.steps >= s.MaxSteps {
			return s.end(), ErrMaxSteps
		}
		idx := -1
		for i := range s.entries {
			if s.entries[i].done {
				continue
			}
			if idx < 0 || s.entries[i].time < s.entries[idx].time {
				idx = i
			}
		}
		e := &s.entries[idx]
		cost, done := e.agent.Step(e.time)
		if s.stopping {
			// The agent asked for a pause instead of stepping: discard the
			// step (an agent calling Stop returns without side effects), so
			// state is exactly "about to step this agent" for Resume.
			s.stopping = false
			return s.end(), ErrPaused
		}
		if cost == 0 {
			cost = 1
		}
		e.time += cost
		s.steps++
		if done {
			e.done = true
			if e.required {
				required--
			}
		}
	}
	return s.end(), nil
}

// end returns the maximum local time across required agents.
//
//detlint:hotpath
func (s *Scheduler) end() uint64 {
	var max uint64
	for _, e := range s.entries {
		if e.required && e.time > max {
			max = e.time
		}
	}
	return max
}
