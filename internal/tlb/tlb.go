// Package tlb models a two-level data TLB. The paper's methodology uses
// transparent huge pages specifically to "minimize any effects due to TLB
// misses" (Section 4.1): with 4 KB pages, a 64 MB shared array spans 16384
// pages, every page-visit of the transmission pattern begins with a page
// walk, and the walk latency rides on top of the load the receiver is
// timing — pushing LLC hits past the decision threshold. This package
// exists to demonstrate exactly that effect (see the huge-pages ablation).
package tlb

import (
	"fmt"

	"streamline/internal/mem"
)

// Config describes the TLB hierarchy and its penalties.
type Config struct {
	PageBytes int // translation granule (4096, or 2 MB with huge pages)
	// L1Entries/L1Ways and L2Entries/L2Ways shape the two levels.
	L1Entries, L1Ways int
	L2Entries, L2Ways int
	// L2HitPenalty is the extra latency when the L1 TLB misses but the
	// STLB hits; WalkPenalty is a full page walk.
	L2HitPenalty int
	WalkPenalty  int
}

// Skylake4K returns the Skylake DTLB with 4 KB pages: 64-entry 4-way L1,
// 1536-entry 12-way STLB, ~9-cycle STLB hit, ~90-cycle walk (walks hit the
// paging-structure caches most of the time).
func Skylake4K() Config {
	return Config{
		PageBytes: 4096,
		L1Entries: 64, L1Ways: 4,
		L2Entries: 1536, L2Ways: 12,
		L2HitPenalty: 9,
		WalkPenalty:  90,
	}
}

// level is one set-associative translation cache with per-set LRU.
type level struct {
	sets, ways int      //detlint:lifecycle-skip geometry fixed at construction, identical across the lifecycle
	tags       []uint64 // page numbers; 0 is encoded as +1
	stamp      []uint32
	clock      uint32
}

func newLevel(entries, ways int) (*level, error) {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		return nil, fmt.Errorf("tlb: bad level shape %d entries / %d ways", entries, ways)
	}
	sets := entries / ways
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("tlb: set count %d not a power of two", sets)
	}
	return &level{
		sets: sets, ways: ways,
		tags:  make([]uint64, entries),
		stamp: make([]uint32, entries),
	}, nil
}

// lookup probes and (on hit) refreshes page; on miss it installs it.
func (l *level) lookup(page uint64) bool {
	set := int(page) & (l.sets - 1)
	base := set * l.ways
	key := page + 1
	l.clock++
	victim, victimStamp := base, l.stamp[base]
	for w := 0; w < l.ways; w++ {
		if l.tags[base+w] == key {
			l.stamp[base+w] = l.clock
			return true
		}
		if l.stamp[base+w] < victimStamp {
			victim, victimStamp = base+w, l.stamp[base+w]
		}
	}
	l.tags[victim] = key
	l.stamp[victim] = l.clock
	return false
}

// TLB is one core's data TLB.
type TLB struct {
	cfg Config //detlint:lifecycle-skip level-shape/latency configuration fixed at construction
	l1  *level
	l2  *level

	// Stats
	Accesses uint64
	L1Misses uint64
	Walks    uint64
}

// New builds a TLB from cfg.
func New(cfg Config) (*TLB, error) {
	if cfg.PageBytes <= 0 || cfg.PageBytes&(cfg.PageBytes-1) != 0 {
		return nil, fmt.Errorf("tlb: page size %d not a positive power of two", cfg.PageBytes)
	}
	l1, err := newLevel(cfg.L1Entries, cfg.L1Ways)
	if err != nil {
		return nil, err
	}
	l2, err := newLevel(cfg.L2Entries, cfg.L2Ways)
	if err != nil {
		return nil, err
	}
	return &TLB{cfg: cfg, l1: l1, l2: l2}, nil
}

// Penalty translates address a and returns the extra cycles the access
// pays: 0 on an L1 TLB hit, the STLB penalty on an L1 miss, or a full walk.
func (t *TLB) Penalty(a mem.Addr) int {
	t.Accesses++
	page := uint64(a) / uint64(t.cfg.PageBytes)
	if t.l1.lookup(page) {
		return 0
	}
	t.L1Misses++
	if t.l2.lookup(page) {
		return t.cfg.L2HitPenalty
	}
	t.Walks++
	return t.cfg.WalkPenalty
}
