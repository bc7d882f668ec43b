package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"streamline/internal/daemon"
	"streamline/internal/experiments"
	"streamline/internal/resultstore"
)

func runSubmit(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = submit(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// Usage errors exit 2 before any request is made, as sweep's do.
func TestSubmitUsage(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-exp", "table1"},
		{"-remote", "http://127.0.0.1:1"},
		{"-remote", "http://127.0.0.1:1", "-exp", "bogus"},
		{"-no-such-flag"},
	} {
		if code, _, stderr := runSubmit(args...); code != 2 {
			t.Errorf("submit %q exited %d, want 2 (stderr %q)", args, code, stderr)
		}
	}
}

// The tables a submit prints are the bytes a local sweep prints: table1
// at the golden seed matches the committed golden, and a failed job
// exits 1.
func TestSubmitPrintsLocalBytes(t *testing.T) {
	st, err := resultstore.Open(t.TempDir(), resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := daemon.NewServer(st, 4, 1)
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Drain()
	}()

	want, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", "table1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runSubmit("-remote", ts.URL, "-exp", "table1", "-quick", "-seed", "42", "-workers", "1")
	if code != 0 {
		t.Fatalf("submit exited %d: %s", code, stderr)
	}
	if stdout != string(want) {
		t.Errorf("stdout differs from the table1 golden\n--- got ---\n%s--- want ---\n%s", stdout, want)
	}
	if !strings.Contains(stderr, "[table1 took ") {
		t.Errorf("stderr lacks the elapsed-time line:\n%s", stderr)
	}
	if code, stdout, _ := runSubmit("-remote", ts.URL, "-exp", "table1", "-quick", "-seed", "42", "-q"); code != 0 || stdout != string(want) {
		t.Errorf("quiet warm pass exited %d with stdout\n%s", code, stdout)
	}

	rejecting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no", http.StatusBadRequest)
	}))
	defer rejecting.Close()
	if code, _, stderr := runSubmit("-remote", rejecting.URL, "-exp", "table1", "-q"); code != 1 {
		t.Errorf("rejected submit exited %d, want 1 (stderr %q)", code, stderr)
	}
}

// -exp all goes up as one batch job carrying every experiment id in
// registry order, and the tables print in that order.
func TestSubmitAllIsOneBatch(t *testing.T) {
	ids := experiments.IDs()
	var batches, singles atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) { singles.Add(1) })
	mux.HandleFunc("POST /jobs/batch", func(w http.ResponseWriter, r *http.Request) {
		batches.Add(1)
		var req struct {
			Exps  []string `json:"exps"`
			Seed  uint64   `json:"seed"`
			Quick bool     `json:"quick"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Error(err)
		}
		if !reflect.DeepEqual(req.Exps, ids) || req.Seed != 3 || !req.Quick {
			t.Errorf("batch body %+v", req)
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"job-1","state":"queued"}`)
	})
	mux.HandleFunc("GET /jobs/job-1/progress", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("GET /jobs/job-1", func(w http.ResponseWriter, r *http.Request) {
		tabs := make([]*experiments.Table, len(ids))
		for i, id := range ids {
			tabs[i] = &experiments.Table{ID: id, Header: []string{"h"}}
		}
		json.NewEncoder(w).Encode(map[string]any{"id": "job-1", "state": "done", "tables": tabs})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	code, stdout, stderr := runSubmit("-remote", ts.URL, "-exp", "all", "-quick", "-seed", "3", "-csv")
	if code != 0 {
		t.Fatalf("submit -exp all exited %d: %s", code, stderr)
	}
	if batches.Load() != 1 || singles.Load() != 0 {
		t.Errorf("%d batch and %d single submits, want one batch", batches.Load(), singles.Load())
	}
	if want := strings.Repeat("h\n", len(ids)); stdout != want {
		t.Errorf("CSV stdout %q, want %q", stdout, want)
	}
	if !strings.Contains(stderr, "[all (batch) took ") {
		t.Errorf("stderr lacks the batch elapsed line:\n%s", stderr)
	}
}
