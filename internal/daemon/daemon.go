// Package daemon is the experiment-serving daemon behind cmd/streamlined:
// an HTTP surface over a job queue, the content-addressed result store,
// and the experiments registry. It lives in an internal package (rather
// than in the command) so the end-to-end tests and the load generator can
// drive a server instance in-process, without a network listener or a
// child process they do not control.
//
// The serving path is tiered. A submitted job first coalesces with any
// identical in-flight job (singleflight — see below); the surviving leader
// then runs on the server's core.Engine, whose read-through store wiring
// answers each run from the store's memory tier, its disk tier, or a
// simulator checkout, in that order. Each server owns its engine, so two
// servers in one process share neither store nor counters. GET /results/{key} exposes the store's raw
// serving path directly: it is the endpoint the load generator hammers,
// and it touches nothing but the store.
//
// Singleflight: two jobs with the same (exp, seed, runs, quick, full) are
// the same deterministic computation — workers deliberately excluded,
// because tables are bit-identical at any worker count — so the second
// submission attaches to the first as a follower instead of queueing. A
// follower is a thin alias: its status and progress reads resolve through
// the leader, so every follower observes byte-identical progress lines and
// the same result table, and N identical concurrent submissions check out
// exactly one simulator (proved end-to-end by TestSingleflightCoalesces).
// Followers are only legal because results are content-addressed and
// deterministic; a leader failure fails every follower with it.
package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime/debug"
	"sync"

	"streamline/internal/core"
	"streamline/internal/experiments"
	"streamline/internal/resultstore"
	"streamline/internal/runner"
)

// jobRequest is the POST /jobs body. Zero values mean the sweep defaults:
// seed 1, three repetitions, standard payload scale, GOMAXPROCS workers.
type jobRequest struct {
	// Exp is a single experiment id (see sweep -list); clients expand
	// "all" into one job per id so the queue stays per-experiment FIFO,
	// or use POST /jobs/batch to run several ids through one plan.
	Exp     string `json:"exp"`
	Seed    uint64 `json:"seed"`
	Runs    int    `json:"runs"`
	Quick   bool   `json:"quick"`
	Full    bool   `json:"full"`
	Workers int    `json:"workers"`
}

// batchRequest is the POST /jobs/batch body: one job running every listed
// experiment through a single combined runner plan (experiments.RunBatch),
// amortizing pool checkout and hook setup across the whole batch.
type batchRequest struct {
	Exps    []string `json:"exps"`
	Seed    uint64   `json:"seed"`
	Runs    int      `json:"runs"`
	Quick   bool     `json:"quick"`
	Full    bool     `json:"full"`
	Workers int      `json:"workers"`
}

// jobStatus is the GET /jobs/{id} body.
type jobStatus struct {
	ID    string     `json:"id"`
	Req   jobRequest `json:"req"`
	State string     `json:"state"` // queued | running | done | failed
	// Leader names the in-flight job this submission coalesced with;
	// empty for jobs that run their own simulation.
	Leader   string               `json:"leader,omitempty"`
	Progress []string             `json:"progress,omitempty"`
	Table    *experiments.Table   `json:"table,omitempty"`
	Tables   []*experiments.Table `json:"tables,omitempty"` // batch jobs only
	Error    string               `json:"error,omitempty"`
}

// storeStats is the GET /store/stats body: the store's counters plus the
// server engine's counters, which together show how much of the daemon's
// work was served versus simulated. Reading it is lock-free on the store
// side (atomic counters), so stats polling never contends with serving.
type storeStats struct {
	Dir       string            `json:"dir,omitempty"`
	Store     resultstore.Stats `json:"store"`
	Run       core.Counters     `json:"run"`
	Coalesced uint64            `json:"coalesced"` // submissions answered by singleflight attach
}

// flightKey identifies a computation for singleflight purposes: every
// field that reaches seed derivation or plan construction, and nothing
// that does not (Workers shapes scheduling only; results are bit-identical
// at any value).
type flightKey struct {
	exp   string
	seed  uint64
	runs  int
	quick bool
	full  bool
}

// job is one queued experiment run. Its Write method is the progress sink
// handed to experiments.Opts.Progress, so the runner's per-run hook lines
// stream straight into the job's line buffer; streamProgress replays and
// follows that buffer over HTTP. A follower job carries a leader pointer
// and no state of its own: reads resolve through target().
type job struct {
	id    string
	req   jobRequest
	batch []string // non-nil for /jobs/batch jobs (req.Exp empty)

	leader *job // singleflight follower → the job doing the work

	mu      sync.Mutex
	cond    *sync.Cond
	state   string
	lines   []string
	partial []byte
	table   *experiments.Table
	tables  []*experiments.Table
	errMsg  string
}

func newJob(id string, req jobRequest) *job {
	j := &job{id: id, req: req, state: "queued"}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// target resolves singleflight aliasing: followers read the leader's
// state, everyone else reads their own.
func (j *job) target() *job {
	if j.leader != nil {
		return j.leader
	}
	return j
}

// Write appends newline-delimited progress output; partial lines are held
// back until their newline arrives so stream consumers only ever see whole
// lines. Called from the runner's hook goroutine (hooks are serialized).
func (j *job) Write(p []byte) (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.partial = append(j.partial, p...)
	for {
		i := bytes.IndexByte(j.partial, '\n')
		if i < 0 {
			break
		}
		j.lines = append(j.lines, string(j.partial[:i+1]))
		j.partial = j.partial[i+1:]
	}
	j.cond.Broadcast()
	return len(p), nil
}

func (j *job) setState(s string) {
	j.mu.Lock()
	j.state = s
	j.cond.Broadcast()
	j.mu.Unlock()
}

func (j *job) finish(tab *experiments.Table, tabs []*experiments.Table, err error) {
	j.mu.Lock()
	if len(j.partial) > 0 {
		j.lines = append(j.lines, string(j.partial)+"\n")
		j.partial = nil
	}
	if err != nil {
		j.state = "failed"
		j.errMsg = err.Error()
	} else {
		j.state = "done"
		j.table = tab
		j.tables = tabs
	}
	j.cond.Broadcast()
	j.mu.Unlock()
}

func (j *job) status() jobStatus {
	t := j.target()
	t.mu.Lock()
	defer t.mu.Unlock()
	st := jobStatus{
		ID:       j.id,
		Req:      j.req,
		State:    t.state,
		Progress: append([]string(nil), t.lines...),
		Table:    t.table,
		Tables:   t.tables,
		Error:    t.errMsg,
	}
	if j.leader != nil {
		st.Leader = j.leader.id
	}
	return st
}

// Server owns the job queue, registry, and singleflight table. Jobs run
// FIFO on a fixed pool of worker goroutines; the queue is bounded, and a
// full queue rejects the submit with 503 rather than buffering without
// limit.
type Server struct {
	engine *core.Engine
	queue  chan *job
	wg     sync.WaitGroup

	mu        sync.Mutex
	jobs      map[string]*job
	flights   map[flightKey]*job
	nextID    int
	closed    bool
	coalesced uint64
}

// testHookJobStart, when non-nil, is called at the top of every job's
// execution — the seam the singleflight e2e test uses to hold a leader
// in "running" while followers attach.
var testHookJobStart func(j *job)

// panicLog receives the stack of every job panic (stderr; tests capture it).
var panicLog io.Writer = os.Stderr

// NewServer starts workers goroutines draining a queueCap-bounded FIFO.
// store may be nil (jobs then always simulate). Call Drain to stop.
func NewServer(store *resultstore.Store, queueCap, workers int) *Server {
	if queueCap < 1 {
		queueCap = 64
	}
	if workers < 1 {
		workers = 1
	}
	s := &Server{
		engine:  core.NewEngine(core.EngineOptions{Store: store}),
		queue:   make(chan *job, queueCap),
		jobs:    make(map[string]*job),
		flights: make(map[flightKey]*job),
	}
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for j := range s.queue {
				s.runJob(j)
			}
		}()
	}
	return s
}

// runJob runs one job to completion. A panic anywhere in the job — a run
// panicking on the calling goroutine, or any code outside the runner's own
// per-spec recovery — fails only this job: the deferred finish marks it
// failed with the panic value, logs the stack to stderr and retires the
// flight, and the worker goroutine moves on to the next job.
func (s *Server) runJob(j *job) {
	var tab *experiments.Table
	var tabs []*experiments.Table
	var err error
	defer func() {
		if p := recover(); p != nil {
			err = &runner.PanicError{Value: p, Stack: debug.Stack()}
		}
		var pe *runner.PanicError
		if errors.As(err, &pe) {
			fmt.Fprintf(panicLog, "streamlined: job %s: %v\n%s", j.id, pe, pe.Stack)
		}
		// Retire the flight before publishing the result: a submission that
		// misses the flight table re-runs (and is served by the store), but
		// can never attach to a leader that already broadcast its finish.
		s.mu.Lock()
		if key := j.flightKey(); s.flights[key] == j {
			delete(s.flights, key)
		}
		s.mu.Unlock()
		j.finish(tab, tabs, err)
	}()
	j.setState("running")
	if testHookJobStart != nil {
		testHookJobStart(j)
	}
	opts := experiments.Opts{
		Seed:     j.req.Seed,
		Runs:     j.req.Runs,
		Quick:    j.req.Quick,
		Full:     j.req.Full,
		Workers:  j.req.Workers,
		Progress: j,
		Engine:   s.engine,
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if j.batch != nil {
		tabs, err = experiments.RunBatch(j.batch, opts)
	} else {
		tab, err = experiments.Run(j.req.Exp, opts)
	}
}

func (j *job) flightKey() flightKey {
	seed := j.req.Seed
	if seed == 0 {
		seed = 1 // runJob's default; seed 0 and seed 1 are the same job
	}
	return flightKey{exp: j.req.Exp, seed: seed, runs: j.req.Runs, quick: j.req.Quick, full: j.req.Full}
}

// Drain stops accepting new jobs, lets queued and running jobs finish,
// and returns. Submits during or after the drain get 503.
func (s *Server) Drain() {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if already {
		return
	}
	close(s.queue)
	s.wg.Wait()
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("POST /jobs/batch", s.handleBatch)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/progress", s.handleProgress)
	mux.HandleFunc("GET /results/{key}", s.handleResult)
	mux.HandleFunc("GET /store/stats", s.handleStoreStats)
	return mux
}

// maxBodyBytes bounds a POST body. Real job requests are a few hundred
// bytes; the limit only stops a client from streaming an unbounded body
// into the JSON decoder.
const maxBodyBytes = 64 << 10

// maxRuns bounds a request's repetitions per point (the paper uses 5).
// executePlans allocates one spec per run up front, so an unbounded value
// would exhaust memory before the job could fail on its own.
const maxRuns = 1000

// request is a POST body the handlers accept once it decodes and passes
// its check.
type request interface{ check() error }

func (req *jobRequest) check() error {
	return checkRequest([]string{req.Exp}, req.Runs)
}

func (req *batchRequest) check() error {
	if len(req.Exps) == 0 {
		return errors.New("empty batch")
	}
	return checkRequest(req.Exps, req.Runs)
}

// checkRequest is the one request check both submit endpoints share: known,
// distinct experiment ids and a bounded repetition count.
func checkRequest(exps []string, runs int) error {
	if runs < 0 || runs > maxRuns {
		return fmt.Errorf("runs %d outside [0, %d]", runs, maxRuns)
	}
	seen := make(map[string]bool, len(exps))
	for _, id := range exps {
		if !experiments.Known(id) {
			return fmt.Errorf("unknown experiment %q", id)
		}
		if seen[id] {
			return fmt.Errorf("duplicate experiment %q", id)
		}
		seen[id] = true
	}
	return nil
}

// decodeRequest decodes one JSON request body from r into v and checks it.
func decodeRequest(r io.Reader, v request) error {
	if err := json.NewDecoder(r).Decode(v); err != nil {
		return fmt.Errorf("bad request: %w", err)
	}
	return v.check()
}

// decodeBody decodes and checks a size-limited JSON request body into v. On
// failure it has already answered: 413 for an oversized body, 400 for
// anything else.
func decodeBody(w http.ResponseWriter, r *http.Request, v request) bool {
	err := decodeRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes), v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		http.Error(w, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
	} else {
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
	return false
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	if !decodeBody(w, r, &req) {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	s.nextID++
	j := newJob(fmt.Sprintf("job-%d", s.nextID), req)

	// Singleflight: an identical computation already queued or running
	// means this submission attaches as a follower — no queue slot, no
	// second simulation. The flight table holds only live leaders
	// (runJob retires the entry before finish), so an attach can never
	// land on a completed job.
	if leader, ok := s.flights[j.flightKey()]; ok {
		j.leader = leader
		s.jobs[j.id] = j
		s.coalesced++
		s.mu.Unlock()
		s.ack(w, j)
		return
	}

	select {
	case s.queue <- j:
	default:
		s.nextID--
		s.mu.Unlock()
		http.Error(w, "queue full", http.StatusServiceUnavailable)
		return
	}
	s.flights[j.flightKey()] = j
	s.jobs[j.id] = j
	s.mu.Unlock()
	s.ack(w, j)
}

// handleBatch schedules one job running every listed experiment through a
// single combined runner plan. Batch jobs do not coalesce: their flight
// identity would be the whole id set, and overlapping sets still simulate
// once per point thanks to the store.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	s.nextID++
	j := newJob(fmt.Sprintf("job-%d", s.nextID), jobRequest{
		Seed: req.Seed, Runs: req.Runs, Quick: req.Quick, Full: req.Full, Workers: req.Workers,
	})
	j.batch = req.Exps
	select {
	case s.queue <- j:
	default:
		s.nextID--
		s.mu.Unlock()
		http.Error(w, "queue full", http.StatusServiceUnavailable)
		return
	}
	s.jobs[j.id] = j
	s.mu.Unlock()
	s.ack(w, j)
}

func (s *Server) ack(w http.ResponseWriter, j *job) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	st := jobStatus{ID: j.id, Req: j.req, State: "queued"}
	if j.leader != nil {
		st.Leader = j.leader.id
	}
	json.NewEncoder(w).Encode(st)
}

func (s *Server) job(r *http.Request) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[r.PathValue("id")]
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.job(r)
	if j == nil {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(j.status())
}

// handleProgress streams the job's progress lines as plain text, flushing
// each line as it lands, and closes when the job finishes — a client can
// tail a run and treat EOF as "result is ready". Followers tail their
// leader's buffer, so every coalesced submission sees the same lines.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	j := s.job(r)
	if j == nil {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	t := j.target()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	flusher, _ := w.(http.Flusher)
	sent := 0
	for {
		t.mu.Lock()
		for sent == len(t.lines) && t.state != "done" && t.state != "failed" {
			t.cond.Wait()
		}
		pending := t.lines[sent:]
		sent = len(t.lines)
		finished := t.state == "done" || t.state == "failed"
		t.mu.Unlock()
		for _, line := range pending {
			if _, err := fmt.Fprint(w, line); err != nil {
				return
			}
		}
		if flusher != nil && len(pending) > 0 {
			flusher.Flush()
		}
		if finished {
			return
		}
		if r.Context().Err() != nil {
			return
		}
	}
}

// handleResult serves one store entry's raw payload by its content
// address — the daemon's lightweight serving path (no job machinery, no
// queue). A warm key is answered entirely from the store's memory tier.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	store := s.engine.Store()
	if store == nil {
		http.Error(w, "no store configured", http.StatusNotFound)
		return
	}
	key, err := resultstore.ParseKey(r.PathValue("key"))
	if err != nil {
		http.Error(w, "bad key: "+err.Error(), http.StatusBadRequest)
		return
	}
	payload, ok := store.Get(key)
	if !ok {
		http.Error(w, "no such result", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(payload)
}

func (s *Server) handleStoreStats(w http.ResponseWriter, r *http.Request) {
	st := storeStats{Run: s.engine.Counters()}
	if store := s.engine.Store(); store != nil {
		st.Dir = store.Dir()
		st.Store = store.Stats()
	}
	s.mu.Lock()
	st.Coalesced = s.coalesced
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}
