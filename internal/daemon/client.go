package daemon

// The client half of the daemon (`streamlined submit`): each experiment is
// submitted as a job, its progress stream is tailed to the caller's
// progress writer, and the finished table is fetched and returned for the
// caller to format exactly as a local run would be. The daemon's shared
// result store means a sweep anyone ran before comes back in seconds.
//
// Transient failures — connection errors and 5xx responses, including the
// daemon shedding load with 503 — retry with bounded exponential backoff.
// The backoff decision logic is clock-free: each delay is the attempt
// index's power-of-two base scaled by jitter from a PRNG stream seeded
// off the job, so a retry schedule is reproducible from the flags alone
// (the host clock appears only inside the annotated Sleep that paces it).
// Resubmitting after an ambiguous failure is safe: the daemon's
// singleflight table coalesces a duplicate of a still-running job, and
// its result store serves a duplicate of a finished one.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"streamline/internal/experiments"
	"streamline/internal/rng"
)

// Client runs experiments on the daemon at one base URL.
type Client struct {
	base string
}

// NewClient returns a client for the daemon at base (e.g.
// http://localhost:8080).
func NewClient(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/")}
}

// Run executes one experiment on the daemon and returns its table. The
// job takes o's seed, repetitions, scale and worker count. Progress (the
// daemon's runner-hook lines, including [hit]/[miss] markers) and retry
// notices stream to o.Progress as they happen; the stream's EOF is the
// completion signal, so the client never polls.
func (c *Client) Run(exp string, o experiments.Opts) (*experiments.Table, error) {
	st, err := c.run("/jobs", "job:"+exp, o, jobRequest{
		Exp: exp, Seed: o.Seed, Runs: o.Runs, Quick: o.Quick, Full: o.Full, Workers: o.Workers,
	})
	if err != nil {
		return nil, err
	}
	if st.Table == nil {
		return nil, fmt.Errorf("finished in state %q without a table", st.State)
	}
	return st.Table, nil
}

// RunBatch executes several experiments as one daemon batch job (one
// combined runner plan server-side) and returns the tables in the order
// submitted.
func (c *Client) RunBatch(exps []string, o experiments.Opts) ([]*experiments.Table, error) {
	st, err := c.run("/jobs/batch", "batch", o, batchRequest{
		Exps: exps, Seed: o.Seed, Runs: o.Runs, Quick: o.Quick, Full: o.Full, Workers: o.Workers,
	})
	if err != nil {
		return nil, fmt.Errorf("batch: %w", err)
	}
	if len(st.Tables) != len(exps) {
		return nil, fmt.Errorf("batch finished in state %q with %d tables, want %d",
			st.State, len(st.Tables), len(exps))
	}
	return st.Tables, nil
}

// run is the shared submit → tail → fetch flow: POST req to path, stream
// the job's progress to o.Progress until EOF, then fetch and decode its
// final status. Every HTTP leg retries transient failures on one retrier
// seeded from o.Seed and label.
func (c *Client) run(path, label string, o experiments.Opts, req any) (jobStatus, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return jobStatus{}, err
	}
	rt := newRetrier(o.Seed, label, o.Progress)
	resp, err := rt.do("submit", func() (*http.Response, error) {
		return http.Post(c.base+path, "application/json", bytes.NewReader(body))
	})
	if err != nil {
		return jobStatus{}, err
	}
	ack, err := decodeStatus(resp, http.StatusAccepted)
	if err != nil {
		return jobStatus{}, fmt.Errorf("submit: %w", err)
	}

	prog := o.Progress
	if prog == nil {
		prog = io.Discard
	}
	// A stream that dies mid-copy re-tails from the start: the daemon
	// replays the job's whole line buffer, so EOF still means done. The
	// replayed prefix may repeat on stderr; the table fetch below is what
	// carries results.
	streamResp, err := rt.do("stream "+ack.ID, func() (*http.Response, error) {
		stream, err := http.Get(c.base + "/jobs/" + ack.ID + "/progress")
		if err != nil {
			return nil, err
		}
		if stream.StatusCode != http.StatusOK {
			return stream, nil // 5xx retries in do(); 4xx surfaces below
		}
		_, copyErr := io.Copy(prog, stream.Body)
		stream.Body.Close()
		if copyErr != nil {
			return nil, copyErr
		}
		return stream, nil
	})
	if err != nil {
		return jobStatus{}, err
	}
	if streamResp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(streamResp.Body, 4096))
		streamResp.Body.Close()
		return jobStatus{}, fmt.Errorf("stream %s: daemon returned %s: %s",
			ack.ID, streamResp.Status, strings.TrimSpace(string(msg)))
	}

	resp, err = rt.do("fetch "+ack.ID, func() (*http.Response, error) {
		return http.Get(c.base + "/jobs/" + ack.ID)
	})
	if err != nil {
		return jobStatus{}, err
	}
	st, err := decodeStatus(resp, http.StatusOK)
	if err != nil {
		return jobStatus{}, fmt.Errorf("fetch %s: %w", ack.ID, err)
	}
	if st.State == "failed" {
		return jobStatus{}, fmt.Errorf("failed remotely: %s", st.Error)
	}
	return st, nil
}

// decodeStatus checks the response status and decodes the job body.
func decodeStatus(resp *http.Response, want int) (jobStatus, error) {
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return jobStatus{}, fmt.Errorf("daemon returned %s: %s",
			resp.Status, strings.TrimSpace(string(msg)))
	}
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return jobStatus{}, err
	}
	return st, nil
}

const (
	retryAttempts = 5
	retryBase     = 200 * time.Millisecond
	retryCap      = 5 * time.Second
)

// retrier retries transient HTTP failures with bounded exponential
// backoff and seeded jitter. One retrier serves a whole remote run, so
// the jitter stream advances across calls and no two delays repeat.
type retrier struct {
	jitter *rng.Xoshiro
	prog   io.Writer // retry notices, next to the progress lines; may be nil
}

func newRetrier(seed uint64, label string, prog io.Writer) *retrier {
	return &retrier{
		jitter: rng.New(rng.Derive(seed, rng.HashString("remote-retry"), rng.HashString(label))),
		prog:   prog,
	}
}

// do runs fn until it returns a non-5xx response, retrying connection
// errors and 5xx statuses up to retryAttempts times. 4xx responses are
// returned to the caller: they are the daemon rejecting the request, not
// a blip worth retrying.
func (r *retrier) do(what string, fn func() (*http.Response, error)) (*http.Response, error) {
	var lastErr error
	for attempt := 0; attempt < retryAttempts; attempt++ {
		if attempt > 0 {
			r.backoff(what, attempt, lastErr)
		}
		resp, err := fn()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode >= 500 {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			lastErr = fmt.Errorf("daemon returned %s: %s", resp.Status, strings.TrimSpace(string(msg)))
			continue
		}
		return resp, nil
	}
	return nil, fmt.Errorf("%s: giving up after %d attempts: %w", what, retryAttempts, lastErr)
}

// backoff sleeps before retry number attempt (1-based). The duration is
// decided without reading the clock: base 200ms doubling per attempt,
// capped at 5s, scaled by a seeded jitter factor in [0.5, 1.5).
func (r *retrier) backoff(what string, attempt int, cause error) {
	d := retryBase << (attempt - 1)
	if d > retryCap {
		d = retryCap
	}
	d = time.Duration(float64(d) * (0.5 + r.jitter.Float64()))
	if r.prog != nil {
		fmt.Fprintf(r.prog, "[%s: transient failure (%v); retry %d/%d in %s]\n",
			what, cause, attempt, retryAttempts-1, d.Round(time.Millisecond))
	}
	time.Sleep(d) //detlint:allow wallclock -- retry pacing on the remote-client display path; the delay derives from the attempt index and a seeded jitter stream, never from a clock read
}
