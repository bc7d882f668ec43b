// Mid-run checkpoints (see DESIGN.md "Snapshot tree & work stealing").
// A Checkpoint generalizes the warmup-only snapshot of warmlog.go: instead
// of replaying logged events under a new seed, it freezes the complete
// hierarchy state — cache tags, policy metadata, prefetcher training, DRAM
// timing, directory — as a Clone, so a later run with the *same* seed can
// resume from the frozen point exactly on a clone of that clone.
// Because nothing is replayed, the WarmLog legality rules (no evictions, no
// flushes, no random fill during recording) do not apply here; the only
// things a checkpoint cannot carry are external attachments that the
// lifecycle deliberately leaves out (a WarmLog recorder, a counter
// monitor).

package hier

import "fmt"

// Checkpoint is a frozen deep snapshot of a hierarchy mid-run. It is
// immutable after capture: Materialize clones it, so one checkpoint can
// seed any number of forks.
type Checkpoint struct {
	h *Hierarchy
}

// TakeCheckpoint captures the hierarchy's complete state. It refuses
// hierarchies with external attachments the lifecycle does not carry — a
// WarmLog recording in progress or an attached Monitor — because a fork
// restored without them would diverge from the run that took the snapshot.
func (h *Hierarchy) TakeCheckpoint() (*Checkpoint, error) {
	if h.rec != nil {
		return nil, fmt.Errorf("hier: cannot checkpoint while a warm log is recording")
	}
	if h.mon != nil {
		return nil, fmt.Errorf("hier: cannot checkpoint with a monitor attached (Clone drops instrumentation)")
	}
	return &Checkpoint{h: h.Clone()}, nil
}

// Materialize builds a fresh hierarchy carrying the checkpointed state.
func (c *Checkpoint) Materialize() *Hierarchy { return c.h.Clone() }
