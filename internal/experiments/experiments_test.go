package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func quick() Opts { return Opts{Seed: 11, Quick: true} }

// skipHeavyUnderRace skips the full-experiment statistical tests when the
// binary is built with -race: the detector's ~10x slowdown on these
// compute-bound channel simulations blows the package test timeout
// without exercising any new interleavings. TestRaceSmoke keeps the
// parallel execution path itself race-covered.
func skipHeavyUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("heavy statistical test skipped under -race (TestRaceSmoke covers the parallel path)")
	}
}

// TestRaceSmoke drives a full experiment through an 8-worker pool. Cheap
// enough to run under -race, it is the conformance point the heavy tests
// defer to for data-race coverage of the fan-out/fan-in path.
func TestRaceSmoke(t *testing.T) {
	o := quick()
	o.Workers = 8
	tab, err := Run("table1", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("table1 shape %d rows", len(tab.Rows))
	}
}

// parsePct parses a "1.23%" or "1.23% (± 0.1%)" cell.
func parsePct(t *testing.T, cell string) float64 {
	t.Helper()
	f := strings.Fields(cell)[0]
	f = strings.TrimSuffix(f, "%")
	v, err := strconv.ParseFloat(f, 64)
	if err != nil {
		t.Fatalf("cannot parse percentage %q: %v", cell, err)
	}
	return v
}

func parseNum(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.Fields(cell)[0], 64)
	if err != nil {
		t.Fatalf("cannot parse number %q: %v", cell, err)
	}
	return v
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("table99", quick()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestIDsCoverRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) != len(registry) {
		t.Fatalf("IDs returned %d of %d", len(ids), len(registry))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatal("IDs not sorted")
		}
	}
}

func TestTableFormat(t *testing.T) {
	tab := &Table{ID: "x", Title: "t", Header: []string{"a", "bb"},
		Rows: [][]string{{"1", "2"}}, Notes: []string{"n"}}
	var buf bytes.Buffer
	tab.Format(&buf)
	out := buf.String()
	for _, want := range []string{"== x: t", "a", "bb", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}
}

func TestTable1Structure(t *testing.T) {
	tab, err := Run("table1", quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 || len(tab.Rows[0]) != 6 {
		t.Fatalf("table1 shape %dx%d", len(tab.Rows), len(tab.Rows[0]))
	}
	// The channel's pattern (x=3, y=2) must fool the prefetcher...
	if mr := parsePct(t, tab.Rows[2][2]); mr < 85 {
		t.Errorf("(3,2) miss rate %.1f%%, want >= 85%%", mr)
	}
	// ...while sequential (x=1) and strided-one-page (y=1) are covered.
	if mr := parsePct(t, tab.Rows[0][1]); mr > 10 {
		t.Errorf("(1,1) miss rate %.1f%%, want small", mr)
	}
	if mr := parsePct(t, tab.Rows[4][1]); mr > 30 {
		t.Errorf("(5,1) miss rate %.1f%%, want modest", mr)
	}
	// x=2 is covered by the streamer for every y.
	for y := 1; y <= 5; y++ {
		if mr := parsePct(t, tab.Rows[1][y]); mr > 20 {
			t.Errorf("(2,%d) miss rate %.1f%%, want small", y, mr)
		}
	}
}

func TestFig6Ordering(t *testing.T) {
	skipHeavyUnderRace(t)
	tab, err := Run("fig6", quick())
	if err != nil {
		t.Fatal(err)
	}
	// At the largest gap, naive >> sets-only >= sets+ways.
	last := tab.Rows[len(tab.Rows)-1]
	naive, setsOnly, full := parsePct(t, last[1]), parsePct(t, last[2]), parsePct(t, last[3])
	if naive < 10*setsOnly {
		t.Errorf("naive (%.2f%%) not much worse than set-coverage (%.2f%%)", naive, setsOnly)
	}
	if setsOnly < full {
		t.Errorf("trailing accesses did not help: %.2f%% vs %.2f%%", setsOnly, full)
	}
	if full > 1.0 {
		t.Errorf("full pattern error %.2f%% at 40k gap, want <= 1%%", full)
	}
}

func TestFig7GapOrdering(t *testing.T) {
	skipHeavyUnderRace(t)
	tab, err := Run("fig7", quick())
	if err != nil {
		t.Fatal(err)
	}
	last := tab.Rows[len(tab.Rows)-1]
	unlimited, limited, synced := parseNum(t, last[1]), parseNum(t, last[2]), parseNum(t, last[3])
	if !(unlimited > limited && limited > synced) {
		t.Errorf("gap ordering wrong: %v > %v > %v expected", unlimited, limited, synced)
	}
	if synced > 40000 {
		t.Errorf("synced gap %v exceeds threshold", synced)
	}
}

func TestFig9RatesAndTransient(t *testing.T) {
	skipHeavyUnderRace(t)
	tab, err := Run("fig9", quick())
	if err != nil {
		t.Fatal(err)
	}
	small := parsePct(t, tab.Rows[0][2])
	large := parsePct(t, tab.Rows[len(tab.Rows)-1][2])
	if small <= large {
		t.Errorf("startup transient missing: %.2f%% at 200k <= %.2f%% at 1M", small, large)
	}
	for _, row := range tab.Rows {
		rate := parseNum(t, row[1])
		if rate < 1650 || rate > 1950 {
			t.Errorf("bit-rate %v KB/s out of band", rate)
		}
	}
}

func TestTable2DirectionCrossover(t *testing.T) {
	skipHeavyUnderRace(t)
	tab, err := Run("table2", quick())
	if err != nil {
		t.Fatal(err)
	}
	// 1->0 decays with payload size.
	first := parsePct(t, tab.Rows[0][2])
	last := parsePct(t, tab.Rows[len(tab.Rows)-1][2])
	if first <= last {
		t.Errorf("1->0 errors did not decay: %.2f%% -> %.2f%%", first, last)
	}
}

func TestTable3ECC(t *testing.T) {
	skipHeavyUnderRace(t)
	tab, err := Run("table3", quick())
	if err != nil {
		t.Fatal(err)
	}
	plainRate, eccRate := parseNum(t, tab.Rows[0][1]), parseNum(t, tab.Rows[1][1])
	plainErr, eccErr := parsePct(t, tab.Rows[0][2]), parsePct(t, tab.Rows[1][2])
	ratio := eccRate / plainRate
	if ratio < 0.85 || ratio > 0.93 {
		t.Errorf("ECC rate ratio %.3f, want ~0.889", ratio)
	}
	if eccErr >= plainErr {
		t.Errorf("ECC did not reduce errors: %.2f%% vs %.2f%%", eccErr, plainErr)
	}
}

func TestTable4Monotonic(t *testing.T) {
	skipHeavyUnderRace(t)
	tab, err := Run("table4", quick())
	if err != nil {
		t.Fatal(err)
	}
	// Rows are 64, 32, 16, 8 MB: errors must blow up by 8 MB.
	e64 := parsePct(t, tab.Rows[0][1])
	e16 := parsePct(t, tab.Rows[2][1])
	e8 := parsePct(t, tab.Rows[3][1])
	if e8 < 10 {
		t.Errorf("8MB error %.2f%%, want breakdown", e8)
	}
	if !(e8 > e16 && e16 > e64) {
		t.Errorf("array-size ordering violated: %v > %v > %v expected", e8, e16, e64)
	}
}

func TestTable5SyncPeriods(t *testing.T) {
	skipHeavyUnderRace(t)
	tab, err := Run("table5", quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// 500k-period errors exceed the default 200k's.
	if parsePct(t, tab.Rows[0][2]) <= parsePct(t, tab.Rows[1][2]) {
		t.Error("500k sync period not worse than 200k")
	}
	// Rate stays high throughout.
	for _, row := range tab.Rows {
		if parseNum(t, row[1]) < 1700 {
			t.Errorf("rate %v dropped with sync period %s", row[1], row[0])
		}
	}
}

func TestFig10ShortSyncHelps(t *testing.T) {
	skipHeavyUnderRace(t)
	o := quick()
	tab, err := Run("fig10", o)
	if err != nil {
		t.Fatal(err)
	}
	betterOrEqual := 0
	for _, row := range tab.Rows {
		if parsePct(t, row[2]) <= parsePct(t, row[1])+0.05 {
			betterOrEqual++
		}
	}
	if betterOrEqual < len(tab.Rows)*3/4 {
		t.Errorf("sync 50k helped in only %d/%d kernels", betterOrEqual, len(tab.Rows))
	}
}

func TestFig11Breakdown(t *testing.T) {
	skipHeavyUnderRace(t)
	tab, err := Run("fig11", quick())
	if err != nil {
		t.Fatal(err)
	}
	// Find F+R error at the largest window and the smallest window.
	first := parsePct(t, tab.Rows[0][3])
	smallest := parsePct(t, tab.Rows[len(tab.Rows)-2][3]) // last F+R row
	if first > 1 {
		t.Errorf("F+R error %.2f%% at 32768-cycle window, want <1%%", first)
	}
	if smallest < 10 {
		t.Errorf("F+R error %.2f%% at 256-cycle window, want breakdown", smallest)
	}
	// Streamline's row is last and beats every F+R rate.
	sl := tab.Rows[len(tab.Rows)-1]
	if sl[0] != "streamline" {
		t.Fatal("streamline row missing")
	}
	if parseNum(t, sl[2]) < 1700 || parsePct(t, sl[3]) > 1.5 {
		t.Errorf("streamline point wrong: %v", sl)
	}
}

func TestTable6Ordering(t *testing.T) {
	skipHeavyUnderRace(t)
	tab, err := Run("table6", quick())
	if err != nil {
		t.Fatal(err)
	}
	rates := map[string]float64{}
	for _, row := range tab.Rows {
		if strings.Contains(row[2], "KB/s") {
			rates[row[0]] = parseNum(t, row[2])
		}
	}
	if rates["streamline (this work)"] < 2.5*rates["take-a-way"] {
		t.Errorf("streamline (%v) not >=2.5x take-a-way (%v)",
			rates["streamline (this work)"], rates["take-a-way"])
	}
	if rates["take-a-way"] < rates["flush+flush"] {
		t.Error("take-a-way should beat flush+flush")
	}
}

func TestAblations(t *testing.T) {
	skipHeavyUnderRace(t)
	o := quick()
	for _, id := range []string{"ablation-encoding", "ablation-trailing",
		"ablation-ratelimit", "ablation-replacement", "ablation-prefetcher"} {
		tab, err := Run(id, o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s: empty table", id)
		}
	}
}

func TestProgressWriter(t *testing.T) {
	skipHeavyUnderRace(t)
	var buf bytes.Buffer
	o := quick()
	o.Progress = &buf
	if _, err := Run("table3", o); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("no progress output")
	}
}

func TestUniversality(t *testing.T) {
	skipHeavyUnderRace(t)
	tab, err := Run("universality", quick())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]string{}
	for _, r := range tab.Rows {
		byName[r[0]] = r
	}
	for _, flushy := range []string{"flush+reload", "flush+flush"} {
		row, ok := byName[flushy]
		if !ok {
			t.Fatalf("missing row %s", flushy)
		}
		if !strings.Contains(row[2], "unavailable") {
			t.Errorf("%s should be unavailable on ARM: %v", flushy, row)
		}
	}
	sl, ok := byName["streamline"]
	if !ok {
		t.Fatal("missing streamline row")
	}
	armRate := parseNum(t, sl[2])
	if armRate < 500 {
		t.Errorf("streamline on ARM too slow: %v", sl)
	}
	armErr := parsePct(t, strings.Split(sl[2], "@ ")[1])
	if armErr > 3 {
		t.Errorf("streamline on ARM error %.2f%% too high", armErr)
	}
}

func TestSMTVariant(t *testing.T) {
	skipHeavyUnderRace(t)
	tab, err := Run("smt", quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	cross := parseNum(t, tab.Rows[0][1])
	smt := parseNum(t, tab.Rows[1][1])
	if smt <= cross {
		t.Errorf("same-core L2 variant (%v) should beat cross-core (%v): no DRAM in its loop", smt, cross)
	}
	if e := parsePct(t, tab.Rows[1][2]); e > 2 {
		t.Errorf("SMT error %.2f%% too high", e)
	}
	crossGap := parseNum(t, tab.Rows[0][3])
	smtGap := parseNum(t, tab.Rows[1][3])
	if smtGap >= crossGap {
		t.Errorf("SMT gap (%v) should be bounded far below cross-core (%v): the L2 is tiny", smtGap, crossGap)
	}
}

func TestMitigations(t *testing.T) {
	skipHeavyUnderRace(t)
	tab, err := Run("mitigations", quick())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]string{}
	for _, r := range tab.Rows {
		byName[r[0]] = r
	}
	if v := byName["none (baseline)"]; v == nil || v[3] != "channel operates" {
		t.Errorf("baseline verdict wrong: %v", v)
	}
	if v := byName["way partitioning (8+8)"]; v == nil || v[3] != "channel dead" {
		t.Errorf("partitioning verdict wrong: %v", v)
	}
	if v := byName["random replacement"]; v == nil || v[3] == "channel dead" {
		t.Errorf("random replacement should not kill the channel: %v", v)
	}
	det := byName["perf-counter detection"]
	if det == nil || !strings.Contains(det[3], "non-specific") {
		t.Errorf("detection verdict wrong: %v", det)
	}
	camo := byName["adaptive camouflage (3 loads/bit)"]
	if camo == nil || !strings.Contains(camo[3], "flags 0 cores") {
		t.Errorf("camouflage verdict wrong: %v", camo)
	}
}

func TestAsyncPP(t *testing.T) {
	skipHeavyUnderRace(t)
	tab, err := Run("asyncpp", quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	syncRate := parseNum(t, tab.Rows[0][2])
	asyncRate := parseNum(t, tab.Rows[1][2])
	slRate := parseNum(t, tab.Rows[2][2])
	if asyncRate < 4*syncRate {
		t.Errorf("async P+P (%v) not >=4x synchronous (%v)", asyncRate, syncRate)
	}
	if slRate < asyncRate {
		t.Errorf("streamline (%v) should still beat async P+P (%v): shared-memory hits are cheaper than probes", slRate, asyncRate)
	}
	if e := parsePct(t, tab.Rows[1][3]); e > 1 {
		t.Errorf("async P+P error %.2f%% too high", e)
	}
}

func TestAblationHugePages(t *testing.T) {
	skipHeavyUnderRace(t)
	tab, err := Run("ablation-hugepages", quick())
	if err != nil {
		t.Fatal(err)
	}
	hugeErr := parsePct(t, tab.Rows[0][2])
	smallErr := parsePct(t, tab.Rows[1][2])
	if smallErr < 2*hugeErr {
		t.Errorf("4KB pages (%.2f%%) should be much worse than huge pages (%.2f%%)", smallErr, hugeErr)
	}
}

func TestTableFormatCSV(t *testing.T) {
	tab := &Table{ID: "x", Title: "t", Header: []string{"a", "b"},
		Rows: [][]string{{"1,5", `say "hi"`}, {"2", "3"}}}
	var buf bytes.Buffer
	tab.FormatCSV(&buf)
	out := buf.String()
	want := "a,b\n\"1,5\",\"say \\\"hi\\\"\"\n2,3\n"
	// %q escapes quotes Go-style; accept either Go or doubled-quote form
	// as long as the simple cells round-trip.
	if !strings.HasPrefix(out, "a,b\n") || !strings.Contains(out, "2,3\n") {
		t.Fatalf("csv output:\n%s\nwant prefix and plain row like %q", out, want)
	}
	if !strings.Contains(out, `"1,5"`) {
		t.Fatalf("comma cell not quoted:\n%s", out)
	}
}
