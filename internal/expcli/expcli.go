// Package expcli is the command-line front end shared by the two programs
// that print experiment tables: cmd/sweep, which runs experiments in
// process, and `streamlined submit`, which runs them on a daemon. Both
// take the same run flags, report through the same progress hook and
// print tables the same way, so for equal flags their stdout is
// byte-identical.
//
// The package links no network code: cmd/sweep starts as a small static
// binary, and the daemon client lives in internal/daemon.
package expcli

import (
	"flag"
	"fmt"
	"io"
	"time"

	"streamline/internal/experiments"
)

// Flags holds the run flags both front ends accept.
type Flags struct {
	Seed    uint64
	Runs    int
	Full    bool
	Quick   bool
	Quiet   bool
	CSV     bool
	Workers int
}

// Register defines the run flags on fs and returns their destination.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.Uint64Var(&f.Seed, "seed", 1, "base seed (per-run seeds derive from it hierarchically)")
	fs.IntVar(&f.Runs, "runs", 0, "repetitions per data point (0 = default 3; paper uses 5)")
	fs.BoolVar(&f.Full, "full", false, "paper-scale payload sizes (up to 1e9 bits; hours)")
	fs.BoolVar(&f.Quick, "quick", false, "smoke-test sizes")
	fs.BoolVar(&f.Quiet, "quiet", false, "suppress progress and timing lines")
	fs.BoolVar(&f.Quiet, "q", false, "shorthand for -quiet")
	fs.BoolVar(&f.CSV, "csv", false, "emit CSV instead of aligned text")
	fs.IntVar(&f.Workers, "workers", 0, "worker-pool size (0 = GOMAXPROCS, 1 = serial); results are identical at any value")
	return f
}

// Opts maps the flags to experiment options whose per-run progress goes
// to p.
func (f *Flags) Opts(p *Progress) experiments.Opts {
	return experiments.Opts{
		Seed: f.Seed, Runs: f.Runs, Full: f.Full, Quick: f.Quick, Workers: f.Workers,
		Progress: p.RunWriter(),
	}
}

// Print writes tab to w as aligned text, or as CSV under -csv.
func (f *Flags) Print(w io.Writer, tab *experiments.Table) {
	if f.CSV {
		tab.FormatCSV(w)
	} else {
		tab.Format(w)
	}
}

// Each runs ids in order, printing every table to w as it completes and
// reporting each experiment's elapsed time on p. It stops at the first
// error, which it returns prefixed with the experiment id.
func (f *Flags) Each(w io.Writer, p *Progress, ids []string, run func(id string) (*experiments.Table, error)) error {
	for _, id := range ids {
		done := p.Begin(id)
		tab, err := run(id)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		f.Print(w, tab)
		done()
	}
	return nil
}

// Progress is a command's single progress hook: every line written to
// stderr and every wall-clock read funnels through it, so the display
// path has exactly one clock call site (Progress.now) and -quiet switches
// the whole thing off at once.
type Progress struct {
	w     io.Writer
	quiet bool
	start time.Time
}

// NewProgress returns the hook writing to w, silent when quiet.
func NewProgress(w io.Writer, quiet bool) *Progress {
	p := &Progress{w: w, quiet: quiet}
	p.start = p.now()
	return p
}

// now is the front end's only clock access; its values decorate stderr
// progress lines and never reach experiment output (stdout).
func (p *Progress) now() time.Time {
	return time.Now() //detlint:allow wallclock -- display-only elapsed timing on the progress path; never reaches results
}

// RunWriter returns the per-run progress destination for
// experiments.Opts.Progress, or nil when quiet.
func (p *Progress) RunWriter() io.Writer {
	if p.quiet {
		return nil
	}
	return p.w
}

// Begin marks the start of one experiment and returns the function that
// reports its elapsed time.
func (p *Progress) Begin(id string) (done func()) {
	start := p.now()
	return func() {
		if !p.quiet {
			fmt.Fprintf(p.w, "[%s took %s]\n", id, p.now().Sub(start).Round(time.Millisecond))
		}
	}
}

// Total reports time elapsed since the hook was created.
func (p *Progress) Total(label string) {
	if !p.quiet {
		fmt.Fprintf(p.w, "[%s took %s]\n", label, p.now().Sub(p.start).Round(time.Millisecond))
	}
}
