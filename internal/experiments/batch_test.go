package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// TestRunBatchMatchesSequential pins the batch executor's contract: a batch
// of experiments compiled into one combined runner plan yields tables
// bit-identical to running each id on its own. The pair below covers both
// plan shapes — ablation-ratelimit is unchained, fig9 declares a
// checkpoint chain whose dependencies ride the same Execute call.
func TestRunBatchMatchesSequential(t *testing.T) {
	ids := []string{"ablation-ratelimit", "fig9"}
	o := Opts{Seed: 11, Quick: true, Workers: 4}

	seq := make([]*Table, len(ids))
	for i, id := range ids {
		tab, err := Run(id, o)
		if err != nil {
			t.Fatalf("sequential %s: %v", id, err)
		}
		seq[i] = tab
	}

	batch, err := RunBatch(ids, o)
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	if len(batch) != len(ids) {
		t.Fatalf("RunBatch returned %d tables for %d ids", len(batch), len(ids))
	}
	for i, id := range ids {
		if !reflect.DeepEqual(batch[i], seq[i]) {
			t.Errorf("%s: batched table differs from sequential\nbatch %+v\nseq   %+v",
				id, batch[i], seq[i])
		}
	}
}

func TestRunBatchRejectsBadInput(t *testing.T) {
	o := Opts{Seed: 1, Quick: true}
	if _, err := RunBatch(nil, o); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := RunBatch([]string{"table1", "table1"}, o); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate id accepted: %v", err)
	}
	if _, err := RunBatch([]string{"no-such-exp"}, o); err == nil {
		t.Error("unknown id accepted")
	}
}
