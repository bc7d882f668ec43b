package daemon

import (
	"bytes"
	"testing"

	"streamline/internal/experiments"
)

// FuzzDecodeRequest feeds arbitrary bodies through the submit endpoints'
// decode and check. Whatever the body, decoding must not panic, and every
// request it accepts must be inside the bounds a job can run with: a
// repetition count in [0, maxRuns] and known, distinct, non-empty
// experiment ids.
func FuzzDecodeRequest(f *testing.F) {
	for _, tc := range badRunsBodies {
		f.Add([]byte(tc.body), tc.path == "/jobs/batch")
	}
	f.Add([]byte(`{"exp":"table1","quick":true}`), false)
	f.Add([]byte(`{"exps":["table1","fig9"],"seed":7,"runs":5}`), true)
	f.Add([]byte(`{"exps":[]}`), true)
	f.Add([]byte(`{"exps":["fig9","fig9"]}`), true)
	f.Add([]byte(`{"exp":"table1","runs":1e30}`), false)
	f.Fuzz(func(t *testing.T, body []byte, batch bool) {
		var exps []string
		var runs int
		if batch {
			var req batchRequest
			if decodeRequest(bytes.NewReader(body), &req) != nil {
				return
			}
			exps, runs = req.Exps, req.Runs
		} else {
			var req jobRequest
			if decodeRequest(bytes.NewReader(body), &req) != nil {
				return
			}
			exps, runs = []string{req.Exp}, req.Runs
		}
		if runs < 0 || runs > maxRuns {
			t.Fatalf("accepted runs %d outside [0, %d]: %q", runs, maxRuns, body)
		}
		if len(exps) == 0 {
			t.Fatalf("accepted an empty batch: %q", body)
		}
		seen := map[string]bool{}
		for _, id := range exps {
			if !experiments.Known(id) || seen[id] {
				t.Fatalf("accepted unknown or duplicate experiment %q: %q", id, body)
			}
			seen[id] = true
		}
	})
}
