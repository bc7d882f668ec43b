// Command streamlined serves experiment runs over HTTP, backed by the
// on-disk result store: a job whose every point was computed before — by
// an earlier job, an earlier daemon, or a local sweep sharing the store
// directory — is answered from disk without checking out a simulator.
//
// Quickstart:
//
//	streamlined -listen :8080 -store ~/.streamline/store
//	curl -X POST localhost:8080/jobs -d '{"exp":"table1","seed":1,"quick":true}'
//	curl localhost:8080/jobs/job-1/progress   # tails the run; EOF = done
//	curl localhost:8080/jobs/job-1            # result table as JSON
//	curl localhost:8080/store/stats
//
// Or through the client subcommand, which prints the same tables a local
// sweep prints (see submit.go):
//
//	streamlined submit -remote http://localhost:8080 -exp table1 -quick
//	streamlined submit -remote http://localhost:8080 -exp all   # one batch job
//
// Jobs queue FIFO into a bounded queue (-queue, 503 when full) and run on
// -jobs concurrent workers. SIGINT/SIGTERM drains: in-flight and queued
// jobs finish, new submits are refused, then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"streamline/internal/daemon"
	"streamline/internal/resultstore"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "submit" {
		os.Exit(submit(os.Args[2:], os.Stdout, os.Stderr))
	}
	var (
		listen   = flag.String("listen", ":8080", "address to serve HTTP on")
		storeDir = flag.String("store", "", "result-store directory (required)")
		maxBytes = flag.Int64("store-max-bytes", 0, "store size budget in bytes (0 = 2 GiB default, negative = unbounded)")
		memBytes = flag.Int64("store-mem-bytes", 0, "in-memory tier budget in bytes (0 = 512 MiB default, negative = disabled)")
		queueCap = flag.Int("queue", 64, "job queue capacity; submits beyond it get 503")
		jobs     = flag.Int("jobs", 1, "jobs run concurrently (each job still fans its runs across its own worker pool)")
	)
	flag.Parse()

	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "usage: streamlined -listen :8080 -store DIR")
		os.Exit(2)
	}
	st, err := resultstore.Open(*storeDir, resultstore.Options{
		MaxBytes: *maxBytes,
		MemBytes: *memBytes,
		Log:      func(format string, args ...any) { fmt.Fprintf(os.Stderr, "streamlined: store: "+format+"\n", args...) },
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "streamlined: %v\n", err)
		os.Exit(1)
	}

	srv := daemon.NewServer(st, *queueCap, *jobs)
	// Header reads are bounded in time and size so a slow or oversized
	// client cannot hold a connection open before its request is even
	// routed (bodies are capped per handler). There is deliberately no
	// ReadTimeout or WriteTimeout: either would cut long-lived
	// /jobs/{id}/progress streams.
	httpSrv := &http.Server{
		Addr:              *listen,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		MaxHeaderBytes:    64 << 10,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "streamlined: draining (queued jobs finish; new submits get 503)")
		// Stop accepting connections first, then let the queue run dry.
		// Shutdown without a deadline: progress streams close when their
		// jobs finish, which the drain below guarantees.
		httpSrv.Shutdown(context.Background())
	}()

	fmt.Fprintf(os.Stderr, "streamlined: serving on %s (store %s)\n", *listen, st.Dir())
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(os.Stderr, "streamlined: %v\n", err)
		os.Exit(1)
	}
	srv.Drain()
	s := st.Stats()
	fmt.Fprintf(os.Stderr, "streamlined: drained; store: %d entries, %d hits, %d misses\n",
		s.Entries, s.Hits, s.Misses)
}
