// Command loadgen drives the result-store serving path with a
// deterministic Zipf workload and reports throughput, latency
// percentiles, and hit ratios. Three targets:
//
//	loadgen -store DIR -populate            # hammer the store in-process
//	loadgen -daemon http://host:8080        # hammer a running daemon's GET /results/{key}
//	loadgen -store DIR -populate -selfdaemon # spin an in-process daemon on loopback and hammer it over HTTP
//
// The workload (which keys exist, which key each request asks for) is a
// pure function of the flags — two invocations with the same flags issue
// the identical request trace at any worker count. -open-qps switches
// from closed-loop (back-to-back requests, service-time latency) to
// open-loop (scheduled arrivals, queueing-inclusive latency).
//
// Typical warm-tier measurement:
//
//	loadgen -store /tmp/lg -populate -requests 100000 -workers 8
//	loadgen -store /tmp/lg -populate -requests 20000 -open-qps 10000 -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"

	"streamline/internal/daemon"
	"streamline/internal/loadgen"
	"streamline/internal/resultstore"
)

func main() {
	var (
		storeDir   = flag.String("store", "", "result-store directory (in-process target, -populate, and -selfdaemon)")
		daemonURL  = flag.String("daemon", "", "base URL of a running streamlined daemon to target over HTTP")
		selfDaemon = flag.Bool("selfdaemon", false, "serve -store through an in-process daemon on loopback and target it over HTTP")
		populate   = flag.Bool("populate", false, "write the working set into -store before the run")
		memBytes   = flag.Int64("mem-bytes", 0, "store memory-tier budget in bytes (0 = 512 MiB default, negative = disabled)")
		keys       = flag.Int("keys", 1024, "working-set size in distinct keys")
		valueBytes = flag.Int("value-bytes", 4096, "payload bytes per key")
		requests   = flag.Int("requests", 10000, "total requests across all workers")
		workers    = flag.Int("workers", 4, "concurrent clients")
		zipf       = flag.Float64("zipf", 1.1, "Zipf skew s (popularity of rank r ∝ 1/r^s)")
		seed       = flag.Uint64("seed", 1, "root seed for the workload derivation")
		openQPS    = flag.Float64("open-qps", 0, "open-loop arrival rate in req/s (0 = closed loop)")
		asJSON     = flag.Bool("json", false, "emit the result as JSON on stdout")
	)
	flag.Parse()

	cfg := loadgen.Config{
		Keys: *keys, ValueBytes: *valueBytes, Requests: *requests,
		Workers: *workers, ZipfS: *zipf, Seed: *seed, OpenQPS: *openQPS,
	}

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
	if *storeDir == "" && *daemonURL == "" {
		fmt.Fprintln(os.Stderr, "usage: loadgen -store DIR [-populate] [-selfdaemon] | loadgen -daemon URL")
		os.Exit(2)
	}
	if *daemonURL != "" && (*storeDir != "" || *selfDaemon || *populate) {
		fail(fmt.Errorf("-daemon is exclusive with -store/-populate/-selfdaemon (populate the daemon's store directory directly)"))
	}

	var st *resultstore.Store
	if *storeDir != "" {
		var err error
		st, err = resultstore.Open(*storeDir, resultstore.Options{
			MemBytes: *memBytes,
			Log:      func(format string, args ...any) { fmt.Fprintf(os.Stderr, "loadgen: store: "+format+"\n", args...) },
		})
		if err != nil {
			fail(err)
		}
		if *populate {
			if err := loadgen.Populate(st, cfg); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "loadgen: populated %d keys x %d bytes\n", cfg.Keys, cfg.ValueBytes)
		}
	}

	var target loadgen.Target
	switch {
	case *daemonURL != "":
		target = loadgen.HTTPTarget{Base: *daemonURL}
	case *selfDaemon:
		srv := daemon.NewServer(st, 1, 1)
		defer srv.Drain()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fail(err)
		}
		go http.Serve(ln, srv.Handler())
		base := "http://" + ln.Addr().String()
		fmt.Fprintf(os.Stderr, "loadgen: in-process daemon on %s\n", base)
		target = loadgen.HTTPTarget{Base: base}
	default:
		target = loadgen.StoreTarget{Store: st}
	}

	before := resultstore.Stats{}
	if st != nil {
		before = st.Stats()
	}
	res, err := loadgen.Run(target, cfg)
	if err != nil {
		fail(err)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fail(err)
		}
	} else {
		mode := "closed-loop"
		if cfg.OpenQPS > 0 {
			mode = fmt.Sprintf("open-loop @ %.0f req/s", cfg.OpenQPS)
		}
		fmt.Printf("loadgen %s: %d requests, %d workers, %d keys (zipf %.2f)\n",
			mode, res.Requests, *workers, *keys, *zipf)
		fmt.Printf("  throughput %.0f req/s over %v\n", res.QPS, res.Elapsed.Round(1000000))
		fmt.Printf("  latency p50 %v  p90 %v  p99 %v  max %v\n", res.P50, res.P90, res.P99, res.Max)
		fmt.Printf("  hits %d / misses %d / errors %d (hit ratio %.3f)\n",
			res.Hits, res.Misses, res.Errors, res.HitRatio)
	}
	if st != nil {
		after := st.Stats()
		memOps := (after.MemHits - before.MemHits) + (after.MemMisses - before.MemMisses)
		if memOps > 0 {
			fmt.Fprintf(os.Stderr, "loadgen: store: mem hits %d / misses %d (%.3f), resident %d entries %d bytes\n",
				after.MemHits-before.MemHits, after.MemMisses-before.MemMisses,
				float64(after.MemHits-before.MemHits)/float64(memOps),
				after.MemEntries, after.MemBytes)
		}
	}
}
