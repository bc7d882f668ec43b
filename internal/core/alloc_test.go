package core

import (
	"testing"

	"streamline/internal/hier"
	"streamline/internal/mem"
	"streamline/internal/pattern"
	"streamline/internal/payload"
	"streamline/internal/syncch"
	"streamline/internal/tlb"
)

// TestStepZeroAllocs pins the channel's steady state as allocation-free:
// after buildAgents, a transmitted/received bit must not touch the heap —
// the address chunk refills, gap sampling, level tracing, and camouflage
// all run out of preallocated buffers. Run's remaining allocations are
// per-run construction, so the per-bit cost of a 400k-bit transfer stays
// flat.
func TestStepZeroAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ArraySize = 16 << 20
	cfg.GapSampleEvery = 64 // exercise the gap-trace append
	cfg.TraceLevels = true  // and the level trace
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	hopt := hier.Options{Seed: cfg.Seed}
	if !cfg.HugePages {
		tl := tlb.Skylake4K()
		hopt.TLB = &tl
	}
	h, err := hier.New(cfg.Machine, hopt)
	if err != nil {
		t.Fatal(err)
	}
	alloc := mem.NewAllocator(cfg.Machine.PageSize)
	arr := alloc.Alloc(cfg.ArraySize)
	sc, err := syncch.New(h, alloc.Alloc(syncch.RegionBytes(h)))
	if err != nil {
		t.Fatal(err)
	}
	pat := pattern.NewStreamline(h.Geometry())
	tx := payload.Modulate(payload.Random(3, 100000), cfg.KeySeed)
	camoReg := alloc.Alloc(1 << 20)
	snd, rcv := buildAgents(&cfg, h, arr, pat, tx, sc,
		newCamo(h, cfg.SenderCore, camoReg, 1), nil)

	now := uint64(0)
	step := func() {
		c1, _ := snd.Step(now)
		c2, _ := rcv.Step(now)
		now += c1 + c2
	}
	for i := 0; i < 2000; i++ {
		step() // settle: first chunk refills, trace warm-up
	}
	if avg := testing.AllocsPerRun(5000, step); avg != 0 {
		t.Fatalf("steady-state bit costs %.2f allocations, want 0", avg)
	}
}

// TestReplayWarmupZeroAllocs pins the warm-snapshot path as allocation-free
// past its one Clone: replaying the warmup log for a new seed onto the
// cloned snapshot and pushing traffic through it must not touch the heap.
func TestReplayWarmupZeroAllocs(t *testing.T) {
	m := DefaultConfig().Machine
	snap, err := hier.New(m, hier.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]mem.Addr, 256)
	for i := range buf {
		buf[i] = mem.Addr(4096 + i*64)
	}
	snap.StartRecording()
	snap.AccessBatch(0, buf, 0, hier.BatchClock{Hold: true})
	log := snap.StopRecording()
	if log.Aborted() {
		t.Fatal("recording aborted on the default shape")
	}
	h := snap.Clone()
	seed := uint64(4)
	replayAndRun := func() {
		if err := h.ReplayWarmup(seed, log); err != nil {
			t.Fatal(err)
		}
		seed++
		h.AccessBatch(0, buf, 0, hier.BatchClock{Hold: true})
	}
	replayAndRun() // settle batch-kernel internals
	if avg := testing.AllocsPerRun(50, replayAndRun); avg != 0 {
		t.Fatalf("replay-and-run costs %.2f allocations, want 0", avg)
	}
}
