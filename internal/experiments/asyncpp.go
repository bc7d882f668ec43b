package experiments

import (
	"streamline/internal/attacks"
	"streamline/internal/core"
)

// planAsyncPP evaluates the asynchronous Prime+Probe channel — the paper's
// Section 5.2 future-work direction, realized in internal/attacks:
// applying Streamline's asynchronous self-resetting protocol to set
// conflicts, removing the shared-memory requirement.
func planAsyncPP(o Opts) (*Plan, error) {
	bits := 100000
	if o.Quick {
		bits = 40000
	}
	points := []Point{
		// Synchronous LLC Prime+Probe.
		{
			Label: "prime+probe synchronous",
			Run:   o.attackRun(attacks.Spec{Kind: "prime+probe(llc)"}, bits/4),
		},
		// Asynchronous Prime+Probe.
		{
			Label: "prime+probe asynchronous",
			Run:   o.attackRun(attacks.Spec{Kind: "async-prime+probe"}, bits),
		},
		// Streamline for scale.
		{
			Label: "streamline",
			Run: o.channelRun(func(int, uint64) core.Config {
				return core.DefaultConfig()
			}, bits*4),
		},
	}
	return &Plan{
		Points: points,
		Assemble: func(res [][]Out) (*Table, error) {
			t := &Table{
				ID:     "asyncpp",
				Title:  "Asynchronous Prime+Probe (Section 5.2 future work) vs its synchronous ancestor and Streamline",
				Header: []string{"channel", "shared memory?", "bit-rate", "bit-error-rate"},
				Notes: []string{
					"the async protocol's probe doubles as the re-prime, so no per-bit reset or synchronization is needed",
				},
			}
			t.Rows = append(t.Rows, []string{"prime+probe(llc), synchronous", "no",
				kbps(summarize(res[0], 0)), pct(summarize(res[0], 1))})
			t.Rows = append(t.Rows, []string{"prime+probe, asynchronous (this repo)", "no",
				kbps(summarize(res[1], 0)), pct(summarize(res[1], 1))})
			t.Rows = append(t.Rows, []string{"streamline", "yes",
				kbps(summarize(res[2], cmRate)), pct(summarize(res[2], cmErr))})
			return t, nil
		},
	}, nil
}
