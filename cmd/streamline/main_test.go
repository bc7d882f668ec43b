package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"streamline/internal/core"
	"streamline/internal/payload"
)

// TestDumpTrace runs a short traced transmission and checks the -dump CSV:
// a header, then one row per payload bit whose received column is the
// packed Decoded vector's bit and whose level column names LevelTrace.
func TestDumpTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("channel run")
	}
	cfg := core.DefaultConfig()
	cfg.TraceLevels = true
	bits := payload.Random(7, 20000)
	res, err := core.NewEngine(core.EngineOptions{}).Run(cfg, bits)
	if err != nil {
		t.Fatal(err)
	}
	// With residual errors, a received column that echoed the sent bits
	// would fail below.
	if res.Errors.Errors == 0 {
		t.Fatal("run has no bit errors, so received and sent columns cannot be told apart")
	}
	path := filepath.Join(t.TempDir(), "trace.csv")
	if err := dumpTrace(path, bits, res); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if rows[0] != "index,sent,received,level" {
		t.Fatalf("header %q", rows[0])
	}
	rows = rows[1:]
	if len(rows) != len(bits) {
		t.Fatalf("%d rows for %d payload bits", len(rows), len(bits))
	}
	levels := [4]string{"L1", "L2", "LLC", "DRAM"}
	for i, row := range rows {
		want := strings.Join([]string{strconv.Itoa(i), strconv.Itoa(int(bits[i])),
			strconv.Itoa(int(res.Decoded.At(i))), levels[res.LevelTrace[i]]}, ",")
		if row != want {
			t.Fatalf("row %d = %q, want %q", i, row, want)
		}
	}
}
