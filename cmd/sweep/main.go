// Command sweep regenerates the paper's tables and figures (the role of
// the original artifact's run_exp.sh). Each experiment is addressed by the
// paper's artifact id. Runs fan out across a worker pool; results are
// bit-identical at any worker count (see internal/runner).
//
// Examples:
//
//	sweep -exp table1
//	sweep -exp fig9 -runs 5
//	sweep -exp all
//	sweep -exp all -workers 8   # fan runs out across 8 workers
//	sweep -exp all -workers 1   # strictly serial (the reference path)
//	sweep -exp all -full        # the paper's own payload sizes (hours)
//	sweep -list
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"streamline/internal/core"
	"streamline/internal/expcli"
	"streamline/internal/experiments"
	"streamline/internal/resultstore"
)

func main() {
	var (
		exp        = flag.String("exp", "", "experiment id (or 'all')")
		list       = flag.Bool("list", false, "list experiment ids")
		storeDir   = flag.String("store", "", "result-store directory: serve repeated runs from disk instead of simulating (progress marks them [hit])")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile (taken after the sweep) to this file")
	)
	run := expcli.Register(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "usage: sweep -exp <id|all> (see -list)")
		os.Exit(2)
	}
	if *exp != "all" && !experiments.Known(*exp) {
		fmt.Fprintf(os.Stderr, "sweep: unknown experiment %q (see -list for ids)\n", *exp)
		os.Exit(2)
	}

	// Profiling hooks for hot-path work (see DESIGN.md "Performance").
	// The profiles sample host time, but only decorate the run the way the
	// stderr progress lines do: experiment output on stdout stays a pure
	// function of the seed.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush dead objects so the profile shows live + cumulative allocs
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			}
		}()
	}

	prog := expcli.NewProgress(os.Stderr, run.Quiet)
	opts := run.Opts(prog)

	// Every run is checked against the result store before a simulator is
	// checked out: with -store it is the on-disk store, so warm repeats of
	// a sweep complete in seconds; without, a memory-only store shares
	// results between this process's runs. Progress lines mark served runs
	// [hit] (suppressed, like all progress, by -quiet).
	store, err := resultstore.Open(*storeDir, resultstore.Options{
		Log: func(format string, args ...any) { fmt.Fprintf(os.Stderr, "sweep: store: "+format+"\n", args...) },
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(1)
	}
	// One engine for the whole process: every id shares its reuse layers
	// and store (a Table 2-5 point can be served by the fig9 ladder's run).
	opts.Engine = core.NewEngine(core.EngineOptions{Store: store})

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	err = run.Each(os.Stdout, prog, ids, func(id string) (*experiments.Table, error) {
		return experiments.Run(id, opts)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *exp == "all" {
		prog.Total("all experiments")
	}
	if *storeDir != "" && !run.Quiet {
		s := store.Stats()
		fmt.Fprintf(os.Stderr, "[store: %d hits, %d misses, %d entries, %.1f MB]\n",
			s.Hits, s.Misses, s.Entries, float64(s.Bytes)/1e6)
	}
}
