package main

import (
	"flag"
	"fmt"
	"io"

	"streamline/internal/daemon"
	"streamline/internal/expcli"
	"streamline/internal/experiments"
)

// submit is the `streamlined submit` client: it runs experiments on a
// daemon instead of locally and prints what `sweep` would print for the
// same flags — byte-identical tables on stdout, the daemon's progress
// lines (with [hit]/[miss] markers) on stderr. -exp all goes up as one
// batch job: the daemon runs every experiment through a single combined
// runner plan, and the tables come back in submission order. It returns
// the process exit code: 2 for usage errors, 1 for failed runs.
func submit(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("streamlined submit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	remote := fs.String("remote", "", "streamlined daemon URL (e.g. http://localhost:8080) to run the experiments on")
	exp := fs.String("exp", "", "experiment id (or 'all'); see sweep -list")
	run := expcli.Register(fs)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if *remote == "" || *exp == "" {
		fmt.Fprintln(stderr, "usage: streamlined submit -remote URL -exp <id|all> (see sweep -list)")
		return 2
	}
	if *exp != "all" && !experiments.Known(*exp) {
		fmt.Fprintf(stderr, "streamlined submit: unknown experiment %q (see sweep -list for ids)\n", *exp)
		return 2
	}

	prog := expcli.NewProgress(stderr, run.Quiet)
	opts := run.Opts(prog)
	client := daemon.NewClient(*remote)
	if *exp == "all" {
		done := prog.Begin("all (batch)")
		tabs, err := client.RunBatch(experiments.IDs(), opts)
		if err != nil {
			fmt.Fprintf(stderr, "streamlined submit: %v\n", err)
			return 1
		}
		for _, tab := range tabs {
			run.Print(stdout, tab)
		}
		done()
		return 0
	}
	err := run.Each(stdout, prog, []string{*exp}, func(id string) (*experiments.Table, error) {
		return client.Run(id, opts)
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}
