package core

import (
	"testing"

	"streamline/internal/dram"
	"streamline/internal/ecc"
	"streamline/internal/noise"
	"streamline/internal/params"
	"streamline/internal/payload"
)

// testConfig returns the default configuration with a fixed seed; tests
// shrink payloads to keep runtimes low.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Seed = 1234
	return cfg
}

// run simulates cfg on a fresh engine: no store, every reuse layer on.
func run(t *testing.T, cfg Config, bits []byte) *Result {
	t.Helper()
	return runOn(t, NewEngine(EngineOptions{}), cfg, bits)
}

func runOn(t *testing.T, e *Engine, cfg Config, bits []byte) *Result {
	t.Helper()
	res, err := e.Run(cfg, bits)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bits := payload.Random(1, 10)
	for name, mutate := range map[string]func(*Config){
		"same core":     func(c *Config) { c.ReceiverCore = c.SenderCore },
		"core range":    func(c *Config) { c.SenderCore = 99 },
		"array size":    func(c *Config) { c.ArraySize = 0 },
		"array align":   func(c *Config) { c.ArraySize = 100 },
		"neg lag":       func(c *Config) { c.TrailingLag = -1 },
		"sync lead":     func(c *Config) { c.SyncLead = 0 },
		"sync lead>per": func(c *Config) { c.SyncLead = c.SyncPeriod + 1 },
		"bad machine":   func(c *Config) { c.Machine = params.SkylakeE3(); c.Machine.FreqMHz = 0 },
		"llc policy":    func(c *Config) { c.LLCPolicy = "bogus" },
		"dram banks":    func(c *Config) { d := dram.DefaultConfig(); d.Banks = 12; c.DRAM = &d },
		"dram row":      func(c *Config) { d := dram.DefaultConfig(); d.RowBytes = 6000; c.DRAM = &d },
	} {
		cfg := testConfig()
		mutate(&cfg)
		if _, err := NewEngine(EngineOptions{}).Run(cfg, bits); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

func TestEmptyPayloadRejected(t *testing.T) {
	e := NewEngine(EngineOptions{})
	if _, err := e.Run(testConfig(), nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	if _, err := e.RunRandom(testConfig(), 1, 0); err == nil {
		t.Fatal("empty generated payload accepted")
	}
}

func TestRoundTripLowError(t *testing.T) {
	bits := payload.Random(7, 200000)
	res := run(t, testConfig(), bits)
	if r := res.Errors.Rate(); r > 0.03 {
		t.Fatalf("error rate %.3f too high", r)
	}
	if res.Decoded.Len() != len(bits) {
		t.Fatalf("decoded length %d != %d", res.Decoded.Len(), len(bits))
	}
}

func TestBitRateNearPaper(t *testing.T) {
	res := run(t, testConfig(), payload.Random(7, 400000))
	if res.BitRateKBps < 1700 || res.BitRateKBps > 1900 {
		t.Fatalf("bit-rate %.0f KB/s outside the calibrated band around 1801", res.BitRateKBps)
	}
	if p := res.BitPeriodCycles(); p < 250 || p < 0 || p > 290 {
		t.Fatalf("bit period %.1f cycles, want ~265", p)
	}
}

func TestDeterminism(t *testing.T) {
	bits := payload.Random(7, 100000)
	a := run(t, testConfig(), bits)
	b := run(t, testConfig(), bits)
	if a.Cycles != b.Cycles || a.Errors != b.Errors || a.MaxGap != b.MaxGap {
		t.Fatalf("same-seed runs differ: %+v vs %+v", a.Errors, b.Errors)
	}
	cfg := testConfig()
	cfg.Seed++
	c := run(t, cfg, bits)
	if a.Cycles == c.Cycles {
		t.Fatal("different seeds produced identical timing")
	}
}

func TestReceiverLevelCountsSum(t *testing.T) {
	bits := payload.Random(7, 100000)
	res := run(t, testConfig(), bits)
	var total uint64
	for _, v := range res.ReceiverLevels {
		total += v
	}
	if total != uint64(res.ChannelBits) {
		t.Fatalf("level counts sum %d != channel bits %d", total, res.ChannelBits)
	}
}

// The Figure 4 pathology: without PRNG encoding, a heavily biased payload
// breaks the channel; with encoding both biases work (Figure 5).
func TestNaiveEncodingBreaksOnBiasedPayload(t *testing.T) {
	// The many-1s pathology needs enough bits for the runaway sender's
	// gap to outgrow the LLC's buffering capacity (~131k lines).
	const n = 400000
	for _, ones := range []float64{0.1, 0.9} {
		bits := payload.Biased(5, n, ones)

		naive := testConfig()
		naive.Modulate = false
		naive.SyncPeriod = 0 // let the pathology unfold
		nres := run(t, naive, bits)

		enc := testConfig()
		enc.SyncPeriod = 0
		eres := run(t, enc, bits)

		if nres.Errors.Rate() < 3*eres.Errors.Rate() || nres.Errors.Rate() < 0.05 {
			t.Errorf("ones=%.1f: naive %.3f vs encoded %.3f — naive should be much worse",
				ones, nres.Errors.Rate(), eres.Errors.Rate())
		}
		if eres.Errors.Rate() > 0.05 {
			t.Errorf("ones=%.1f: encoded channel error %.3f too high", ones, eres.Errors.Rate())
		}
	}
}

// With an all-0 payload and naive encoding the sender is slower than the
// receiver, so the receiver overtakes and floods with misses (decoding 1s).
func TestNaiveAllZerosReceiverOvertakes(t *testing.T) {
	cfg := testConfig()
	cfg.Modulate = false
	cfg.SyncPeriod = 0
	res := run(t, cfg, make([]byte, 150000))
	if res.RawErrors.RateZeroToOne() < 0.10 {
		t.Fatalf("expected heavy 0->1 errors from overtake, got %.3f",
			res.RawErrors.RateZeroToOne())
	}
}

func TestRateLimitBoundsGapGrowth(t *testing.T) {
	const n = 200000
	bits := payload.Random(9, n)
	unlimited := testConfig()
	unlimited.RateLimitSender = false
	unlimited.SyncPeriod = 0
	ur := run(t, unlimited, bits)

	limited := testConfig()
	limited.SyncPeriod = 0
	lr := run(t, limited, bits)

	if ur.MaxGap < 2*lr.MaxGap {
		t.Fatalf("unlimited sender gap %d not much larger than limited %d", ur.MaxGap, lr.MaxGap)
	}
}

func TestSyncBoundsGap(t *testing.T) {
	bits := payload.Random(9, 600000)
	nosync := testConfig()
	nosync.SyncPeriod = 0
	nr := run(t, nosync, bits)

	sync := testConfig() // default 200k sync
	sr := run(t, sync, bits)

	if sr.MaxGap >= nr.MaxGap {
		t.Fatalf("sync did not reduce max gap: %d vs %d", sr.MaxGap, nr.MaxGap)
	}
	if sr.MaxGap > 40000 {
		t.Fatalf("synced gap %d exceeds the 40k tolerance threshold", sr.MaxGap)
	}
	if sr.SyncWaits == 0 {
		t.Fatal("no sync waits recorded")
	}
}

func TestTrailingAccessesExtendTolerance(t *testing.T) {
	bits := payload.Random(11, 200000)
	with := testConfig()
	with.SyncPeriod = 0
	with.GapClamp = 30000
	with.WarmupBytes = 0
	wr := run(t, with, bits)

	without := with
	without.TrailingLag = 0
	or := run(t, without, bits)

	if or.RawErrors.RateZeroToOne() < 3*wr.RawErrors.RateZeroToOne() {
		t.Fatalf("trailing accesses should cut 0->1 errors at a 30k gap: with=%.4f without=%.4f",
			wr.RawErrors.RateZeroToOne(), or.RawErrors.RateZeroToOne())
	}
}

func TestGapClampHolds(t *testing.T) {
	cfg := testConfig()
	cfg.SyncPeriod = 0
	cfg.GapClamp = 7000
	res := run(t, cfg, payload.Random(3, 100000))
	if res.MaxGap > 7100 {
		t.Fatalf("gap clamp violated: %d", res.MaxGap)
	}
}

func TestGapSampling(t *testing.T) {
	cfg := testConfig()
	cfg.GapSampleEvery = 10000
	res := run(t, cfg, payload.Random(3, 100000))
	if len(res.GapSamples) != 10 {
		t.Fatalf("got %d gap samples, want 10", len(res.GapSamples))
	}
	for i, g := range res.GapSamples {
		if g.Bits != int64(10000*(i+1)) {
			t.Fatalf("sample %d at bits %d", i, g.Bits)
		}
	}
}

func TestECCReducesErrorsAndRate(t *testing.T) {
	bits := payload.Random(13, 300000)
	plain := run(t, testConfig(), bits)

	eccCfg := testConfig()
	eccCfg.ECC = true
	eccRes := run(t, eccCfg, bits)

	if eccRes.Errors.Rate() >= plain.Errors.Rate() {
		t.Fatalf("ECC did not reduce error rate: %.4f vs %.4f",
			eccRes.Errors.Rate(), plain.Errors.Rate())
	}
	// Effective data rate drops by ~the 12.5% code overhead.
	ratio := eccRes.BitRateKBps / plain.BitRateKBps
	if ratio < 0.85 || ratio > 0.93 {
		t.Fatalf("ECC rate ratio %.3f, want ~0.889", ratio)
	}
	if eccRes.ECCStats.Corrected == 0 {
		t.Fatal("ECC corrected nothing despite channel errors")
	}
	if eccRes.ChannelBits != ecc.EncodedLen(300000) {
		t.Fatalf("channel bits %d with ECC", eccRes.ChannelBits)
	}
}

func TestSmallArrayBreaksThrashing(t *testing.T) {
	bits := payload.Random(17, 400000)
	small := testConfig()
	small.ArraySize = 8 << 20 // equals the LLC: wrap-around reuse fails
	sr := run(t, small, bits)

	big := testConfig()
	br := run(t, big, bits)

	if sr.Errors.Rate() < 0.10 {
		t.Fatalf("8MB array error %.3f; expected breakdown (>10%%)", sr.Errors.Rate())
	}
	if br.Errors.Rate() > 0.03 {
		t.Fatalf("64MB array error %.3f; expected healthy channel", br.Errors.Rate())
	}
	// The failure direction is stale hits: 1->0.
	if sr.RawErrors.OneToZero < 10*sr.RawErrors.ZeroToOne {
		t.Fatalf("small-array failure not dominated by stale hits: %+v", sr.RawErrors)
	}
}

func TestWarmupCausesEarlyOneToZeroBurst(t *testing.T) {
	bits := payload.Random(19, 100000)
	warm := testConfig()
	warm.SystemNoise = false
	wr := run(t, warm, bits)

	cold := warm
	cold.WarmupBytes = 0
	cr := run(t, cold, bits)

	if wr.RawErrors.OneToZero < 5*cr.RawErrors.OneToZero {
		t.Fatalf("warmup transient missing: warm=%d cold=%d 1->0 errors",
			wr.RawErrors.OneToZero, cr.RawErrors.OneToZero)
	}
}

func TestNoiseIncreasesErrors(t *testing.T) {
	bits := payload.Random(23, 300000)
	quiet := testConfig()
	qr := run(t, quiet, bits)

	loud := testConfig()
	stress, ok := noise.ByName(8<<20, "cache")
	if !ok {
		t.Fatal("missing stressor")
	}
	loud.Noise = []noise.Config{stress}
	lr := run(t, loud, bits)

	if lr.Errors.Rate() <= qr.Errors.Rate() {
		t.Fatalf("stressor did not increase errors: %.4f vs %.4f",
			lr.Errors.Rate(), qr.Errors.Rate())
	}
}

func TestShorterSyncPeriodImprovesNoiseResilience(t *testing.T) {
	bits := payload.Random(29, 400000)
	stress, _ := noise.ByName(8<<20, "stream")

	long := testConfig()
	long.Noise = []noise.Config{stress}
	lres := run(t, long, bits)

	short := testConfig()
	short.Noise = []noise.Config{stress}
	short.SyncPeriod = 50000
	sres := run(t, short, bits)

	if sres.Errors.Rate() >= lres.Errors.Rate() {
		t.Fatalf("short sync period did not help under noise: 50k=%.4f 200k=%.4f",
			sres.Errors.Rate(), lres.Errors.Rate())
	}
}

func TestDecodedPayloadMatchesModuloErrors(t *testing.T) {
	bits := payload.Random(31, 100000)
	res := run(t, testConfig(), bits)
	diff := 0
	for i := range bits {
		if bits[i] != res.Decoded.At(i) {
			diff++
		}
	}
	if diff != res.Errors.Errors {
		t.Fatalf("reported %d errors but decoded differs in %d bits", res.Errors.Errors, diff)
	}
}

func TestCrossPlatformMachines(t *testing.T) {
	bits := payload.Random(37, 150000)
	for _, mk := range []func() Config{
		func() Config { c := testConfig(); return c },
		func() Config {
			c := testConfig()
			c.Machine = kabyLake()
			c.ArraySize = 96 << 20 // keep >= 3x the 12MB LLC per Section 4.4
			return c
		},
	} {
		cfg := mk()
		res := run(t, cfg, bits)
		if res.Errors.Rate() > 0.05 {
			t.Errorf("%s: error %.3f too high", cfg.Machine.Name, res.Errors.Rate())
		}
	}
}

func BenchmarkChannelBit(b *testing.B) {
	cfg := DefaultConfig()
	n := b.N
	if n < 1000 {
		n = 1000
	}
	bits := payload.Random(1, n)
	e := NewEngine(EngineOptions{})
	b.ResetTimer()
	if _, err := e.Run(cfg, bits); err != nil {
		b.Fatal(err)
	}
}

// kabyLake returns the Kaby Lake machine for the cross-platform test.
func kabyLake() *params.Machine { return params.KabyLakeI7() }

func TestPreambleBurnsTransient(t *testing.T) {
	bits := payload.Random(41, 20000) // tiny payload: inside the warm window
	plain := testConfig()
	pr := run(t, plain, bits)

	withPre := testConfig()
	withPre.PreambleBits = 8192
	wr := run(t, withPre, bits)

	if wr.Errors.Rate() >= pr.Errors.Rate()/2 {
		t.Fatalf("preamble did not absorb the transient: with=%.3f without=%.3f",
			wr.Errors.Rate(), pr.Errors.Rate())
	}
	if wr.ChannelBits != 20000+8192 {
		t.Fatalf("channel bits %d, want payload+preamble", wr.ChannelBits)
	}
	if wr.Decoded.Len() != len(bits) {
		t.Fatalf("decoded length %d", wr.Decoded.Len())
	}
}

func TestPreambleWithECC(t *testing.T) {
	bits := payload.Random(43, 64000)
	cfg := testConfig()
	cfg.ECC = true
	cfg.PreambleBits = 8192
	res := run(t, cfg, bits)
	if res.ChannelBits != ecc.EncodedLen(64000)+8192 {
		t.Fatalf("channel bits %d", res.ChannelBits)
	}
	if res.Errors.Rate() > 0.01 {
		t.Fatalf("error rate %.4f with preamble+ECC", res.Errors.Rate())
	}
}

func TestNegativePreambleRejected(t *testing.T) {
	cfg := testConfig()
	cfg.PreambleBits = -1
	if _, err := NewEngine(EngineOptions{}).Run(cfg, payload.Random(1, 10)); err == nil {
		t.Fatal("negative preamble accepted")
	}
}

func TestCapacityBound(t *testing.T) {
	res := run(t, testConfig(), payload.Random(51, 200000))
	cap := res.CapacityKBps()
	// Capacity sits just under the raw rate at sub-percent error rates,
	// and above the (72,64)-ECC effective rate.
	if cap >= res.ChannelKBps || cap < res.ChannelKBps*0.8 {
		t.Fatalf("capacity %.0f vs channel %.0f", cap, res.ChannelKBps)
	}
}

// TestHugePagesMatter demonstrates why the paper's methodology mandates
// transparent huge pages (Section 4.1): with 4 KB pages the page walk at
// each page-visit boundary rides on the receiver's timed load, pushing
// LLC hits past the threshold and flooding the channel with 0->1 errors.
func TestHugePagesMatter(t *testing.T) {
	bits := payload.Random(53, 200000)
	huge := testConfig()
	hres := run(t, huge, bits)

	small := testConfig()
	small.HugePages = false
	sres := run(t, small, bits)

	if sres.RawErrors.RateZeroToOne() < 5*hres.RawErrors.RateZeroToOne() {
		t.Fatalf("4KB pages should flood 0->1 errors: huge=%.4f small=%.4f",
			hres.RawErrors.RateZeroToOne(), sres.RawErrors.RateZeroToOne())
	}
	if sres.BitRateKBps >= hres.BitRateKBps {
		t.Fatal("4KB pages should also slow the channel (walk latency per bit)")
	}
}

// TestCamouflage exercises the adaptive variant Section 7 sketches: extra
// warm-buffer loads dilute the agents' LLC miss ratios below detection
// thresholds while the channel keeps working at a reduced rate.
func TestCamouflage(t *testing.T) {
	bits := payload.Random(59, 200000)
	plain := run(t, testConfig(), bits)

	camoCfg := testConfig()
	camoCfg.CamouflageAccesses = 3
	cres := run(t, camoCfg, bits)

	if cres.Errors.Rate() > 0.05 {
		t.Fatalf("camouflaged channel error %.3f too high", cres.Errors.Rate())
	}
	if cres.BitRateKBps >= plain.BitRateKBps {
		t.Fatal("camouflage should cost bit-rate")
	}
	if cres.BitRateKBps < plain.BitRateKBps/2 {
		t.Fatalf("camouflage cost too much: %.0f vs %.0f KB/s",
			cres.BitRateKBps, plain.BitRateKBps)
	}
	missRatio := func(res *Result, core int) float64 {
		s := res.CoreServed[core]
		lookups := s[2] + s[3]
		if lookups == 0 {
			return 0
		}
		return float64(s[3]) / float64(lookups)
	}
	// The receiver's miss ratio must drop markedly (toward a benign
	// streaming profile).
	if m, p := missRatio(cres, camoCfg.ReceiverCore), missRatio(plain, camoCfg.ReceiverCore); m > p*0.75 {
		t.Fatalf("camouflage did not dilute the receiver miss ratio: %.2f vs %.2f", m, p)
	}
}

func TestCamouflageNegativeRejected(t *testing.T) {
	cfg := testConfig()
	cfg.CamouflageAccesses = -1
	if _, err := NewEngine(EngineOptions{}).Run(cfg, payload.Random(1, 10)); err == nil {
		t.Fatal("negative camouflage accepted")
	}
}
