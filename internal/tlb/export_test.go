package tlb

// Skylake2M returns the huge-page configuration: 32 L1 entries for 2 MB
// pages plus the shared STLB. A 64 MB array needs only 32 translations, so
// misses effectively vanish — the paper's setup.
func Skylake2M() Config {
	return Config{
		PageBytes: 2 << 20,
		L1Entries: 32, L1Ways: 4,
		L2Entries: 1536, L2Ways: 12,
		L2HitPenalty: 9,
		WalkPenalty:  90,
	}
}
