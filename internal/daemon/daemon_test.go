package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"streamline/internal/core"
	"streamline/internal/experiments"
	"streamline/internal/resultstore"
)

// testClient wraps the daemon's HTTP surface with the submit/tail/status
// helpers every test here needs.
type testClient struct {
	t  *testing.T
	ts *httptest.Server
}

func (c *testClient) submit(body string) jobStatus {
	c.t.Helper()
	resp, err := http.Post(c.ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		c.t.Fatalf("submit: status %d: %s", resp.StatusCode, b)
	}
	var js jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
		c.t.Fatal(err)
	}
	if js.ID == "" || js.State != "queued" {
		c.t.Fatalf("submit: unexpected ack %+v", js)
	}
	return js
}

// tail blocks on the progress stream until the job finishes (EOF) and
// returns everything streamed.
func (c *testClient) tail(id string) string {
	c.t.Helper()
	resp, err := http.Get(c.ts.URL + "/jobs/" + id + "/progress")
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return string(b)
}

func (c *testClient) status(id string) jobStatus {
	c.t.Helper()
	resp, err := http.Get(c.ts.URL + "/jobs/" + id)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var js jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
		c.t.Fatal(err)
	}
	return js
}

// startServer builds a server plus test client, torn down on cleanup.
func startServer(t *testing.T, st *resultstore.Store, queueCap, workers int) (*Server, *testClient) {
	t.Helper()
	srv := NewServer(st, queueCap, workers)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Drain()
	})
	return srv, &testClient{t: t, ts: ts}
}

// storeStats fetches and decodes GET /store/stats.
func (c *testClient) storeStats() storeStats {
	c.t.Helper()
	resp, err := http.Get(c.ts.URL + "/store/stats")
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats storeStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		c.t.Fatal(err)
	}
	return stats
}

// finish tails a submitted job and returns its final status, failing the
// test unless it is done.
func (c *testClient) finish(body string) jobStatus {
	c.t.Helper()
	id := c.submit(body).ID
	c.tail(id)
	js := c.status(id)
	if js.State != "done" {
		c.t.Fatalf("job %s finished %q: %s", id, js.State, js.Error)
	}
	return js
}

// The end-to-end contract of the daemon: a job submitted over HTTP runs to
// completion with streamed progress; resubmitting the identical job after
// it finished is answered from the result store — the hit counter moves
// and no simulator is checked out.
func TestDaemonEndToEnd(t *testing.T) {
	st, err := resultstore.Open(t.TempDir(), resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, c := startServer(t, st, 4, 1)

	const body = `{"exp":"ablation-ratelimit","seed":7,"quick":true,"workers":2}`
	id1 := c.submit(body).ID
	progress := c.tail(id1)
	if !strings.Contains(progress, "ablation-ratelimit") || !strings.Contains(progress, "done") {
		t.Errorf("progress stream missing runner hook lines:\n%s", progress)
	}
	cold := c.status(id1)
	if cold.State != "done" || cold.Table == nil || cold.Table.ID != "ablation-ratelimit" {
		t.Fatalf("cold job did not finish with a table: %+v", cold)
	}

	simsAfterCold := srv.engine.Counters().Sims
	hitsAfterCold := st.Stats().Hits
	if simsAfterCold == 0 {
		t.Fatal("cold job checked out no simulator — the test is not exercising the serve path")
	}

	id2 := c.submit(body).ID
	if id2 == id1 {
		t.Fatalf("job ids must be unique, got %s twice", id1)
	}
	if warmProgress := c.tail(id2); !strings.Contains(warmProgress, "[hit]") {
		t.Errorf("warm progress lines should mark served runs with [hit]:\n%s", warmProgress)
	}
	warm := c.status(id2)
	if warm.State != "done" {
		t.Fatalf("warm job state %q, error %q", warm.State, warm.Error)
	}
	if !reflect.DeepEqual(warm.Table, cold.Table) {
		t.Errorf("warm table differs from cold table\nwarm %+v\ncold %+v", warm.Table, cold.Table)
	}
	if got := srv.engine.Counters().Sims; got != simsAfterCold {
		t.Errorf("warm job checked out %d simulators; identical resubmits must be served from the store", got-simsAfterCold)
	}
	if got := st.Stats().Hits; got <= hitsAfterCold {
		t.Errorf("store hits did not move on resubmit: %d -> %d", hitsAfterCold, got)
	}

	// The stats endpoint reflects the same counters.
	stats := c.storeStats()
	if stats.Store != st.Stats() {
		t.Errorf("/store/stats store counters %+v != %+v", stats.Store, st.Stats())
	}
	if stats.Run.Sims != simsAfterCold {
		t.Errorf("/store/stats run counters %+v; want Sims %d", stats.Run, simsAfterCold)
	}
	if stats.Dir != st.Dir() {
		t.Errorf("/store/stats dir %q != %q", stats.Dir, st.Dir())
	}

	// The run block is the engine's merged counters: a chained job (the
	// fig9 payload ladder) forks its longer member from the checkpoint the
	// shorter one published.
	if testing.Short() {
		return // a 1.2M-bit ladder; too slow under the race detector
	}
	c.finish(`{"exp":"fig9","seed":7,"quick":true,"workers":2}`)
	if run := c.storeStats().Run; run.Forks == 0 || run.Nodes == 0 {
		t.Errorf("/store/stats run counters %+v after a chained job; want Nodes and Forks > 0", run)
	}
}

// TestServersAreIsolated runs two servers in one process, each on its own
// store: a job on A writes to and is served from A's store, and B sees no
// traffic at all.
func TestServersAreIsolated(t *testing.T) {
	stA, err := resultstore.Open(t.TempDir(), resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stB, err := resultstore.Open(t.TempDir(), resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, a := startServer(t, stA, 4, 1)
	_, b := startServer(t, stB, 4, 1)

	const body = `{"exp":"ablation-ratelimit","seed":17,"quick":true,"workers":2}`
	a.finish(body)
	if s := stA.Stats(); s.Writes == 0 {
		t.Fatalf("server A's job wrote nothing to A's store: %+v", s)
	}
	a.finish(body)
	if s := a.storeStats(); s.Store.Hits == 0 || s.Run.StoreHits == 0 {
		t.Errorf("server A's resubmit was not served from A's store: %+v", s)
	}
	if s := b.storeStats(); s.Store != (resultstore.Stats{}) || s.Run != (core.Counters{}) {
		t.Errorf("server B saw traffic from A's jobs: %+v", s)
	}
}

// TestSingleflightCoalesces is the issue's e2e proof: N identical
// concurrent submissions cause exactly one simulation. The test hook holds
// the leader in "running" so the followers' attach window is deterministic,
// then compares the simulator-checkout delta against a solo run of the
// same job measured beforehand.
func TestSingleflightCoalesces(t *testing.T) {
	// No store anywhere: every non-coalesced job would simulate.
	soloEngine := core.NewEngine(core.EngineOptions{})
	opts := experiments.Opts{Seed: 9, Quick: true, Workers: 2, Engine: soloEngine}
	soloTable, err := experiments.Run("ablation-ratelimit", opts)
	if err != nil {
		t.Fatal(err)
	}
	solo := soloEngine.Counters().Sims
	if solo == 0 {
		t.Fatal("solo run checked out no simulator — nothing to coalesce")
	}

	started := make(chan struct{})
	release := make(chan struct{})
	testHookJobStart = func(*job) { close(started); <-release }
	defer func() { testHookJobStart = nil }()

	srv, c := startServer(t, nil, 16, 1)

	const body = `{"exp":"ablation-ratelimit","seed":9,"quick":true,"workers":2}`
	lead := c.submit(body)
	<-started // the leader is running, held at the hook
	const followers = 3
	var ids []string
	for i := 0; i < followers; i++ {
		f := c.submit(body)
		if f.Leader != lead.ID {
			t.Fatalf("submission %d did not coalesce: leader %q, want %q", i, f.Leader, lead.ID)
		}
		ids = append(ids, f.ID)
	}
	simsAtRelease := srv.engine.Counters().Sims
	close(release)

	leaderProgress := c.tail(lead.ID)
	leaderStatus := c.status(lead.ID)
	if leaderStatus.State != "done" {
		t.Fatalf("leader finished %q: %s", leaderStatus.State, leaderStatus.Error)
	}
	if !reflect.DeepEqual(leaderStatus.Table, soloTable) {
		t.Error("coalesced run's table differs from the solo run")
	}
	for _, id := range ids {
		if got := c.tail(id); got != leaderProgress {
			t.Errorf("follower %s progress differs from leader's:\n%q\nvs\n%q", id, got, leaderProgress)
		}
		fs := c.status(id)
		if fs.State != "done" || fs.Leader != lead.ID {
			t.Errorf("follower %s: state %q leader %q", id, fs.State, fs.Leader)
		}
		if !reflect.DeepEqual(fs.Table, leaderStatus.Table) {
			t.Errorf("follower %s observed a different table than the leader", id)
		}
	}

	if delta := srv.engine.Counters().Sims - simsAtRelease; delta != solo {
		t.Errorf("%d identical submissions checked out %d simulator runs, want %d (exactly one simulation)",
			followers+1, delta, solo)
	}

	if got := c.storeStats().Coalesced; got != followers {
		t.Errorf("coalesced counter = %d, want %d", got, followers)
	}
}

// TestConcurrentDuplicateSubmission is the race-detector workload for the
// flight table: many goroutines submit the identical job at once, with no
// test hook pacing them. Whatever interleaving the scheduler picks, every
// submission must finish "done" with the same table.
func TestConcurrentDuplicateSubmission(t *testing.T) {
	_, c := startServer(t, nil, 32, 2)

	const body = `{"exp":"ablation-ratelimit","seed":13,"quick":true,"workers":2}`
	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids[i] = c.submit(body).ID
		}()
	}
	wg.Wait()

	var want *experiments.Table
	for _, id := range ids {
		c.tail(id)
		st := c.status(id)
		if st.State != "done" {
			t.Fatalf("job %s finished %q: %s", id, st.State, st.Error)
		}
		if want == nil {
			want = st.Table
		} else if !reflect.DeepEqual(st.Table, want) {
			t.Errorf("job %s observed a different table", id)
		}
	}
}

// TestBatchEndpoint submits several experiments as one combined-plan job
// and checks each returned table against a direct sequential run.
func TestBatchEndpoint(t *testing.T) {
	_, c := startServer(t, nil, 4, 1)

	ack := func(body string) jobStatus {
		t.Helper()
		resp, err := http.Post(c.ts.URL+"/jobs/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("batch submit: status %d: %s", resp.StatusCode, b)
		}
		var js jobStatus
		if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
			t.Fatal(err)
		}
		return js
	}

	exps := []string{"ablation-ratelimit", "ablation-prefetcher"}
	js := ack(`{"exps":["ablation-ratelimit","ablation-prefetcher"],"seed":3,"quick":true,"workers":2}`)
	c.tail(js.ID)
	st := c.status(js.ID)
	if st.State != "done" || len(st.Tables) != len(exps) {
		t.Fatalf("batch job: state %q, %d tables (err %q)", st.State, len(st.Tables), st.Error)
	}
	for i, id := range exps {
		want, err := experiments.Run(id, experiments.Opts{Seed: 3, Quick: true, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st.Tables[i], want) {
			t.Errorf("batch table %s differs from a direct run", id)
		}
	}

	for name, body := range map[string]string{
		"empty":     `{"exps":[]}`,
		"unknown":   `{"exps":["nope"]}`,
		"duplicate": `{"exps":["table1","table1"]}`,
	} {
		resp, err := http.Post(c.ts.URL+"/jobs/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s batch: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestResultEndpoint covers the raw serving path: a stored payload comes
// back byte-identical; bad keys and misses map to 400/404.
func TestResultEndpoint(t *testing.T) {
	st, err := resultstore.Open(t.TempDir(), resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, c := startServer(t, st, 1, 1)

	payload := []byte("raw result payload")
	key := resultstore.KeyOf(payload)
	if err := st.Put(key, payload); err != nil {
		t.Fatal(err)
	}

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(c.ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}

	if code, body := get("/results/" + key.String()); code != http.StatusOK || string(body) != string(payload) {
		t.Errorf("GET stored key: %d %q", code, body)
	}
	if code, _ := get("/results/not-a-key"); code != http.StatusBadRequest {
		t.Errorf("bad key: status %d, want 400", code)
	}
	if code, _ := get("/results/" + resultstore.KeyOf([]byte("absent")).String()); code != http.StatusNotFound {
		t.Errorf("missing key: status %d, want 404", code)
	}
	// The first GET was the disk read making the entry resident (the Put
	// also inserted it); a repeat GET must be a memory-tier hit.
	if code, _ := get("/results/" + key.String()); code != http.StatusOK {
		t.Fatalf("repeat GET: %d", code)
	}
	if st.Stats().MemHits == 0 {
		t.Error("repeat GET did not hit the memory tier")
	}
}

func TestDaemonRejectsBadRequests(t *testing.T) {
	_, c := startServer(t, nil, 1, 1)

	resp, err := http.Post(c.ts.URL+"/jobs", "application/json", strings.NewReader(`{"exp":"nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown experiment: status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(c.ts.URL + "/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing job: status %d, want 404", resp.StatusCode)
	}
}

// badRunsBodies are submit bodies whose repetition count is out of bounds;
// each must be refused with 400 by its endpoint. FuzzDecodeRequest seeds
// its corpus from them.
var badRunsBodies = []struct{ path, body string }{
	{"/jobs", `{"exp":"table1","runs":-1}`},
	{"/jobs", fmt.Sprintf(`{"exp":"table1","quick":true,"runs":%d}`, maxRuns+1)},
	{"/jobs", `{"exp":"table1","runs":1000000000000}`},
	{"/jobs/batch", `{"exps":["table1"],"runs":-1}`},
	{"/jobs/batch", fmt.Sprintf(`{"exps":["table1"],"quick":true,"runs":%d}`, maxRuns+1)},
	{"/jobs/batch", `{"exps":["table1","fig9"],"runs":1000000000000}`},
}

// TestDaemonRejectsBadRuns pins the repetition bound: a runs value below 0
// or above maxRuns is answered 400 on both submit endpoints, before any
// job is built, and the server goes on serving.
func TestDaemonRejectsBadRuns(t *testing.T) {
	_, c := startServer(t, nil, 1, 1)
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(c.ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, tc := range badRunsBodies {
		if got := post(tc.path, tc.body); got != http.StatusBadRequest {
			t.Errorf("POST %s %s: status %d, want 400", tc.path, tc.body, got)
		}
	}
	// The bound itself is accepted.
	for _, req := range []request{
		&jobRequest{Exp: "table1", Runs: maxRuns},
		&batchRequest{Exps: []string{"table1"}, Runs: maxRuns},
	} {
		if err := req.check(); err != nil {
			t.Errorf("runs = maxRuns refused: %v", err)
		}
	}
	if got := post("/jobs", `{"exp":"nope"}`); got != http.StatusBadRequest {
		t.Errorf("POST after refusals: status %d, want 400", got)
	}
	resp, err := http.Get(c.ts.URL + "/store/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("stats after refusals: status %d, want 200", resp.StatusCode)
	}
}

func TestDaemonDrainRefusesSubmits(t *testing.T) {
	srv, c := startServer(t, nil, 1, 1)
	srv.Drain()

	resp, err := http.Post(c.ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"exp":"table1","quick":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit after drain: status %d, want 503", resp.StatusCode)
	}

	resp, err = http.Post(c.ts.URL+"/jobs/batch", "application/json",
		strings.NewReader(`{"exps":["table1"],"quick":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("batch submit after drain: status %d, want 503", resp.StatusCode)
	}
}

// TestPanickingJobFailsAlone is the failure-injection proof for job
// panics: a job that panics ends "failed" with the panic value, its flight
// is retired (a resubmission runs anew instead of attaching to the dead
// leader), and the same worker goes on to finish the next job with the
// golden table.
func TestPanickingJobFailsAlone(t *testing.T) {
	testHookJobStart = func(j *job) {
		if j.req.Seed == 13 {
			panic("injected job panic")
		}
	}
	var logged bytes.Buffer
	panicLog = &logged
	defer func() { testHookJobStart, panicLog = nil, os.Stderr }()
	_, c := startServer(t, nil, 4, 1)

	const bad = `{"exp":"ablation-ratelimit","seed":13,"quick":true}`
	for i := 0; i < 2; i++ {
		js := c.submit(bad)
		if js.Leader != "" {
			t.Fatalf("submission %d attached to leader %s; the panicked flight was not retired", i, js.Leader)
		}
		c.tail(js.ID)
		if st := c.status(js.ID); st.State != "failed" || !strings.Contains(st.Error, "panic: injected job panic") {
			t.Fatalf("panicking job: state %q, error %q; want failed with the panic value", st.State, st.Error)
		}
	}
	if log := logged.String(); !strings.Contains(log, "job job-1: panic: injected job panic") ||
		!strings.Contains(log, "TestPanickingJobFailsAlone") {
		t.Errorf("panic stack not logged:\n%s", log)
	}

	good := c.submit(`{"exp":"ablation-ratelimit","seed":42,"quick":true}`)
	c.tail(good.ID)
	st := c.status(good.ID)
	if st.State != "done" || st.Table == nil {
		t.Fatalf("job after a panic: state %q, error %q", st.State, st.Error)
	}
	var got bytes.Buffer
	st.Table.Format(&got)
	want, err := os.ReadFile(filepath.Join("..", "experiments", "testdata", "ablation-ratelimit.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("job after a panic differs from the golden table\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}
}

// TestDaemonRejectsOversizedBodies pins the request body limit: a POST body
// beyond maxBodyBytes is answered 413 on both submit endpoints, and the
// server goes on serving.
func TestDaemonRejectsOversizedBodies(t *testing.T) {
	_, c := startServer(t, nil, 1, 1)
	pad := strings.Repeat("x", maxBodyBytes)
	for path, body := range map[string]string{
		"/jobs":       `{"exp":"` + pad + `"}`,
		"/jobs/batch": `{"exps":["` + pad + `"]}`,
	} {
		resp, err := http.Post(c.ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("oversized POST %s: status %d, want 413", path, resp.StatusCode)
		}
	}

	// The next requests are served: a small body is decoded (and rejected
	// on its merits), and stats still answer.
	resp, err := http.Post(c.ts.URL+"/jobs", "application/json", strings.NewReader(`{"exp":"nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("small POST after 413: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(c.ts.URL + "/store/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /store/stats after 413: status %d, want 200", resp.StatusCode)
	}
}
