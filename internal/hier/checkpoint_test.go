package hier

import (
	"testing"

	"streamline/internal/rng"
	"streamline/internal/statetest"
)

// TestCheckpointForkMatchesOriginal pins the Checkpoint contract across
// every lifecycle variant: a fork materialized from a mid-run checkpoint
// behaves identically to the hierarchy that took it, and the checkpoint
// stays immutable after forks diverge.
func TestCheckpointForkMatchesOriginal(t *testing.T) {
	for name, mk := range lifecycleVariants() {
		t.Run(name, func(t *testing.T) {
			h := mustNew(t, mk, 21)
			driveHier(h, rng.New(5), 20000)
			ckpt, err := h.TakeCheckpoint()
			if err != nil {
				t.Fatal(err)
			}
			// Materialized fork vs the original: both sit at the frozen
			// point and must stay in lockstep through a shared suffix.
			fork := ckpt.Materialize()
			requireSameHier(t, fork, h, 77, 20000)
			// The suffix above mutated h and fork, but not the checkpoint:
			// two more forks must still agree with each other from the
			// frozen point.
			dst := ckpt.Materialize()
			again := ckpt.Materialize()
			requireSameHier(t, dst, again, 99, 20000)
		})
	}
}

// TestCheckpointRefusesAttachments: external attachments the lifecycle does
// not carry (an in-progress warm-log recording, an attached monitor) make a
// hierarchy uncheckpointable until removed.
func TestCheckpointRefusesAttachments(t *testing.T) {
	h := mustNew(t, lifecycleVariants()["skylake-default"], 3)

	h.StartRecording()
	if _, err := h.TakeCheckpoint(); err == nil {
		t.Error("checkpoint allowed while a warm log is recording")
	}
	h.StopRecording()

	mon := NewMonitor(len(h.l1), 4096)
	h.AttachMonitor(mon)
	if _, err := h.TakeCheckpoint(); err == nil {
		t.Error("checkpoint allowed with a monitor attached")
	}
	h.DetachMonitor()

	if _, err := h.TakeCheckpoint(); err != nil {
		t.Errorf("checkpoint refused after attachments removed: %v", err)
	}
}

// TestCheckpointFieldAudit: a Checkpoint holds exactly one private cloned
// hierarchy; a second field would be state that Materialize does not carry.
func TestCheckpointFieldAudit(t *testing.T) {
	statetest.Fields(t, Checkpoint{}, "h")
}
