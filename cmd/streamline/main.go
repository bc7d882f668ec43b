// Command streamline runs the Streamline covert channel end-to-end on the
// simulated machine and reports bit-rate, error rates, and gap statistics —
// the equivalent of running the original artifact's sender/receiver pair.
//
// Examples:
//
//	streamline -payload 10000000
//	streamline -payload 1000000 -ecc -array 32 -sync 50000
//	streamline -payload 500000 -noise cache -noise stream
//	streamline -machine kabylake -payload 1000000
//	streamline -payload 1000000 -runs 5 -workers 4   # repeated runs, 95% CIs
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"streamline/internal/core"
	"streamline/internal/experiments"
	"streamline/internal/noise"
	"streamline/internal/params"
	"streamline/internal/payload"
	"streamline/internal/runner"
	"streamline/internal/stats"
)

type noiseList []string

func (n *noiseList) String() string { return strings.Join(*n, ",") }

func (n *noiseList) Set(v string) error {
	*n = append(*n, v)
	return nil
}

func main() {
	var (
		payloadBits = flag.Int("payload", 1000000, "payload size in bits")
		arrayMB     = flag.Int("array", 64, "shared array size in MB")
		syncPeriod  = flag.Int("sync", 200000, "synchronization period in bits (0 disables)")
		ecc         = flag.Bool("ecc", false, "enable (72,64) Hamming error correction")
		seed        = flag.Uint64("seed", 1, "simulation seed")
		machine     = flag.String("machine", "skylake", "machine model: skylake, kabylake, coffeelake, arm")
		noModulate  = flag.Bool("no-modulate", false, "disable the PRNG channel encoding (Figure 4 pathology)")
		noTrailing  = flag.Bool("no-trailing", false, "disable replacement-fooling trailing accesses")
		noRateLimit = flag.Bool("no-ratelimit", false, "disable the sender's rate-limiting rdtscp")
		noPrefetch  = flag.Bool("no-prefetch", false, "disable hardware prefetchers")
		verbose     = flag.Bool("v", false, "print the gap trace")
		smt         = flag.Bool("smt", false, "hyper-threaded same-core variant targeting the L2 (Section 6)")
		partition   = flag.Int("partition", 0, "DAWG-style LLC way-partitioning between trust domains (Section 7); ways per domain")
		randomFill  = flag.Float64("randomfill", 0, "random-fill defense probability (Section 7)")
		dump        = flag.String("dump", "", "write a per-bit CSV trace (index,sent,received,level) to this file")
		camouflage  = flag.Int("camouflage", 0, "adaptive detector camouflage: extra warm loads per bit (Section 7)")
		runs        = flag.Int("runs", 1, "repeat the transmission with derived seeds and report 95% CIs")
		workers     = flag.Int("workers", 0, "worker-pool size for -runs > 1 (0 = GOMAXPROCS, 1 = serial)")
	)
	var noiseNames noiseList
	flag.Var(&noiseNames, "noise", "co-running stress-ng kernel (repeatable); see -noise list")
	flag.Parse()

	// Base configuration: the variant and machine pick tuned defaults;
	// -array and -sync override them only when given explicitly.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	var cfg core.Config
	switch {
	case *smt:
		cfg = experiments.SMTStreamlineConfig()
		if explicit["machine"] && *machine != "skylake" {
			fmt.Fprintln(os.Stderr, "-smt is tuned for the skylake machine")
			os.Exit(2)
		}
	case *machine == "arm":
		cfg = experiments.ARMStreamlineConfig()
	default:
		cfg = core.DefaultConfig()
		switch *machine {
		case "skylake":
			cfg.Machine = params.SkylakeE3()
		case "kabylake":
			cfg.Machine = params.KabyLakeI7()
		case "coffeelake":
			cfg.Machine = params.CoffeeLakeI5()
		default:
			fmt.Fprintf(os.Stderr, "unknown machine %q\n", *machine)
			os.Exit(2)
		}
	}
	cfg.Seed = *seed
	cfg.PartitionWays = *partition
	cfg.RandomFillProb = *randomFill
	cfg.CamouflageAccesses = *camouflage
	if explicit["array"] {
		cfg.ArraySize = *arrayMB << 20
	}
	if explicit["sync"] {
		cfg.SyncPeriod = *syncPeriod
	}
	cfg.ECC = *ecc
	cfg.Modulate = !*noModulate
	cfg.RateLimitSender = !*noRateLimit
	cfg.DisablePrefetch = *noPrefetch
	if *noTrailing {
		cfg.TrailingLag = 0
	}
	if *verbose {
		cfg.GapSampleEvery = *payloadBits / 20
	}
	if *dump != "" {
		cfg.TraceLevels = true
	}

	if len(noiseNames) == 1 && noiseNames[0] == "list" {
		for _, k := range noise.StressNG(cfg.Machine.LLC.SizeBytes) {
			fmt.Println(k.Name)
		}
		fmt.Println("browser")
		return
	}
	for _, name := range noiseNames {
		k, ok := noise.ByName(cfg.Machine.LLC.SizeBytes, name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown noise kernel %q (try -noise list)\n", name)
			os.Exit(2)
		}
		cfg.Noise = append(cfg.Noise, k)
	}

	// One engine, no result store: a channel run always simulates, and
	// -runs repetitions share warm snapshots.
	engine := core.NewEngine(core.EngineOptions{})
	if *runs > 1 {
		if *dump != "" || *verbose {
			fmt.Fprintln(os.Stderr, "-dump and -v require a single run (-runs 1)")
			os.Exit(2)
		}
		if err := multiRun(engine, cfg, *seed, *payloadBits, *runs, *workers); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	bits := payload.Random(*seed^0xbead, *payloadBits)
	res, err := engine.Run(cfg, bits)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("machine:          %s\n", cfg.Machine.Name)
	fmt.Printf("payload:          %d bits (%d on the channel)\n", res.PayloadBits, res.ChannelBits)
	fmt.Printf("time:             %.3f s simulated (%d cycles)\n",
		float64(res.Cycles)/(float64(cfg.Machine.FreqMHz)*1e6), res.Cycles)
	fmt.Printf("bit-rate:         %.0f KB/s (bit period %.1f cycles)\n",
		res.BitRateKBps, res.BitPeriodCycles())
	fmt.Printf("bit-error-rate:   %.3f%%\n", res.Errors.Rate()*100)
	fmt.Printf("  raw 0->1:       %.3f%% (premature evictions)\n", res.RawErrors.RateZeroToOne()*100)
	fmt.Printf("  raw 1->0:       %.3f%% (spurious hits)\n", res.RawErrors.RateOneToZero()*100)
	if cfg.ECC {
		fmt.Printf("ECC packets:      %d corrected, %d detected uncorrectable\n",
			res.ECCStats.Corrected, res.ECCStats.Detected)
	}
	fmt.Printf("max gap:          %d bits (sync waits: %d, timeouts: %d)\n",
		res.MaxGap, res.SyncWaits, res.SyncTimeouts)
	fmt.Printf("receiver levels:  L1=%d L2=%d LLC=%d DRAM=%d\n",
		res.ReceiverLevels[0], res.ReceiverLevels[1], res.ReceiverLevels[2], res.ReceiverLevels[3])
	if *verbose {
		fmt.Println("gap trace:")
		for _, g := range res.GapSamples {
			fmt.Printf("  %10d bits  gap %d\n", g.Bits, g.Gap)
		}
	}
	if *dump != "" {
		if err := dumpTrace(*dump, bits, res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("per-bit trace:    %s\n", *dump)
	}
}

// multiRun repeats the configured transmission runs times with
// hierarchically derived seeds, fanned out across the worker pool, and
// reports mean ± 95% CI for the channel metrics. Results are identical at
// any worker count.
func multiRun(engine *core.Engine, cfg core.Config, seed uint64, payloadBits, runs, workers int) error {
	specs := make([]runner.Spec, runs)
	for r := range specs {
		specs[r] = runner.Spec{Experiment: "streamline-cli", Rep: r,
			Label: fmt.Sprintf("%d bits", payloadBits)}
	}
	outs, err := runner.Execute(specs, nil, func(s runner.Spec, runSeed uint64) (*core.Result, error) {
		c := cfg
		c.Seed = runSeed
		return engine.Run(c, payload.Random(runSeed^0xbead, payloadBits))
	}, runner.Options{Root: seed, Workers: workers, Hook: runner.Progress(os.Stderr)})
	if err != nil {
		return err
	}

	var rates, errs, zo, oz, gaps []float64
	for _, res := range outs {
		rates = append(rates, res.BitRateKBps)
		errs = append(errs, res.Errors.Rate()*100)
		zo = append(zo, res.RawErrors.RateZeroToOne()*100)
		oz = append(oz, res.RawErrors.RateOneToZero()*100)
		gaps = append(gaps, float64(res.MaxGap))
	}
	ci := func(name, unit string, vals []float64) {
		s := stats.Summarize(vals)
		fmt.Printf("%-16s %.3f %s (± %.3f, n=%d)\n", name+":", s.Mean, unit, s.Margin, s.N)
	}
	fmt.Printf("machine:          %s\n", cfg.Machine.Name)
	fmt.Printf("payload:          %d bits x %d runs\n", payloadBits, runs)
	ci("bit-rate", "KB/s", rates)
	ci("bit-error-rate", "%", errs)
	ci("raw 0->1", "%", zo)
	ci("raw 1->0", "%", oz)
	ci("max gap", "bits", gaps)
	return nil
}

// dumpTrace writes one CSV row per payload bit. The serving-level column is
// only available when payload bits map 1:1 onto channel bits (no ECC, no
// preamble); otherwise it is left empty.
func dumpTrace(path string, sent []byte, res *core.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "index,sent,received,level")
	direct := len(res.LevelTrace) == len(sent)
	names := [4]string{"L1", "L2", "LLC", "DRAM"}
	for i := range sent {
		level := ""
		if direct {
			level = names[res.LevelTrace[i]]
		}
		fmt.Fprintf(w, "%d,%d,%d,%s\n", i, sent[i], res.Decoded.At(i), level)
	}
	return w.Flush()
}
