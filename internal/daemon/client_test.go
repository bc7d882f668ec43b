package daemon

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"streamline/internal/experiments"
	"streamline/internal/resultstore"
)

// flaky is a handler whose first failures-many responses are 503s; after
// that it delegates to ok.
type flaky struct {
	failures int32
	seen     atomic.Int32
	ok       http.Handler
}

func (f *flaky) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.seen.Add(1) <= f.failures {
		http.Error(w, "temporarily overloaded", http.StatusServiceUnavailable)
		return
	}
	f.ok.ServeHTTP(w, r)
}

// stubDaemon answers the three client endpoints for one canned job.
func stubDaemon(state string) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"job-1","state":"queued"}`)
	})
	mux.HandleFunc("GET /jobs/job-1/progress", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "run 1/1 done")
	})
	mux.HandleFunc("GET /jobs/job-1", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"id":"job-1","state":%q,"table":{"ID":"table1","Title":"t","Header":["h"],"Rows":[["v"]]}}`, state)
	})
	return mux
}

// A daemon that sheds the first submits with 503 still serves the run,
// and the retry notices land on the progress writer.
func TestClientRetriesTransientErrors(t *testing.T) {
	f := &flaky{failures: 2, ok: stubDaemon("done")}
	ts := httptest.NewServer(f)
	defer ts.Close()

	var prog strings.Builder
	tab, err := NewClient(ts.URL).Run("table1", experiments.Opts{Seed: 1, Progress: &prog})
	if err != nil {
		t.Fatalf("Run with transient 503s: %v", err)
	}
	if tab == nil || tab.ID != "table1" {
		t.Fatalf("table = %+v", tab)
	}
	if got := prog.String(); !strings.Contains(got, "retry 1/") || !strings.Contains(got, "retry 2/") {
		t.Errorf("progress missing retry notices:\n%s", got)
	}
}

// A daemon that never recovers exhausts the bounded attempt budget
// instead of hanging the client.
func TestClientGivesUpAfterBudget(t *testing.T) {
	f := &flaky{failures: 1 << 30, ok: stubDaemon("done")}
	ts := httptest.NewServer(f)
	defer ts.Close()

	_, err := NewClient(ts.URL).Run("table1", experiments.Opts{Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "giving up") {
		t.Fatalf("want a giving-up error, got %v", err)
	}
	if n := f.seen.Load(); n != retryAttempts {
		t.Errorf("made %d attempts, budget is %d", n, retryAttempts)
	}
}

// A 4xx is the daemon refusing the request; retrying would never help
// and must not happen.
func TestClientDoesNotRetryRejections(t *testing.T) {
	var posts atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		http.Error(w, "unknown experiment", http.StatusBadRequest)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	_, err := NewClient(ts.URL).Run("nope", experiments.Opts{Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("want the daemon's rejection, got %v", err)
	}
	if n := posts.Load(); n != 1 {
		t.Errorf("4xx retried: %d submits", n)
	}
}

// The batch flow returns tables in submission order.
func TestClientBatch(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs/batch", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"job-9","state":"queued"}`)
	})
	mux.HandleFunc("GET /jobs/job-9/progress", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("GET /jobs/job-9", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"id":"job-9","state":"done","tables":[{"ID":"a"},{"ID":"b"}]}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	tabs, err := NewClient(ts.URL).RunBatch([]string{"a", "b"}, experiments.Opts{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 || tabs[0].ID != "a" || tabs[1].ID != "b" {
		t.Fatalf("tables out of order: %+v", tabs)
	}
}

// One round trip through a real server: the client's table1 quick table
// is byte-equal to the committed golden, and a second pass is served
// entirely from the daemon's store.
func TestClientRoundTripGolden(t *testing.T) {
	st, err := resultstore.Open(t.TempDir(), resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, c := startServer(t, st, 4, 1)
	want, err := os.ReadFile(filepath.Join("..", "experiments", "testdata", "table1.golden"))
	if err != nil {
		t.Fatal(err)
	}

	client := NewClient(c.ts.URL + "/")
	for pass := 0; pass < 2; pass++ {
		var prog strings.Builder
		tab, err := client.Run("table1", experiments.Opts{Seed: 42, Quick: true, Progress: &prog})
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		var got bytes.Buffer
		tab.Format(&got)
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("pass %d: remote table1 differs from the golden\n--- got ---\n%s--- want ---\n%s", pass, got.Bytes(), want)
		}
		if pass == 1 && (strings.Contains(prog.String(), "[miss]") || !strings.Contains(prog.String(), "[hit]")) {
			t.Errorf("second pass was not served from the store:\n%s", prog.String())
		}
	}
}
