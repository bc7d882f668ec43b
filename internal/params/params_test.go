package params

import (
	"math"
	"testing"
)

func TestSkylakeGeometry(t *testing.T) {
	m := SkylakeE3()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.LLC.Sets() != 8192 {
		t.Fatalf("LLC sets = %d, want 8192", m.LLC.Sets())
	}
	if lines := m.LLC.SizeBytes / m.LLC.LineBytes; lines != 131072 {
		t.Fatalf("LLC lines = %d, want 131072", lines)
	}
	if m.L1.Sets() != 64 || m.L2.Sets() != 1024 {
		t.Fatalf("L1/L2 sets = %d/%d", m.L1.Sets(), m.L2.Sets())
	}
	if lpp := m.PageSize / m.LLC.LineBytes; lpp != 64 {
		t.Fatalf("lines per page = %d", lpp)
	}
}

func TestAllMachinesValidate(t *testing.T) {
	for _, m := range []*Machine{SkylakeE3(), KabyLakeI7(), CoffeeLakeI5()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestValidateCatchesBadMachines(t *testing.T) {
	mutations := map[string]func(*Machine){
		"freq":       func(m *Machine) { m.FreqMHz = 0 },
		"cores":      func(m *Machine) { m.Cores = 0 },
		"page":       func(m *Machine) { m.PageSize = 3000 },
		"mlp":        func(m *Machine) { m.MLP = 0 },
		"llc sets":   func(m *Machine) { m.LLC.SizeBytes = 3 << 20 },
		"line sizes": func(m *Machine) { m.L1.LineBytes = 32; m.L1.SizeBytes = 32 << 10 },
		"threshold":  func(m *Machine) { m.Lat.Threshold = m.Lat.LLCHit },
		"zero geom":  func(m *Machine) { m.L2.Ways = 0 },
	}
	for name, mutate := range mutations {
		m := SkylakeE3()
		mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: invalid machine accepted", name)
		}
	}
}

func TestCacheGeomValidate(t *testing.T) {
	good := CacheGeom{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []CacheGeom{
		{SizeBytes: 0, Ways: 8, LineBytes: 64},
		{SizeBytes: 32 << 10, Ways: 7, LineBytes: 64}, // 7 ways: sets not pow2
		{SizeBytes: 32 << 10, Ways: 8, LineBytes: 48},
		{SizeBytes: 100, Ways: 8, LineBytes: 64},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("bad geometry %d accepted: %+v", i, g)
		}
	}
}

func TestCyclesToKBps(t *testing.T) {
	m := SkylakeE3()
	// The paper's headline: a 265-cycle bit period at 3.9 GHz is ~1797 KB/s.
	got := m.CyclesToKBps(265)
	if math.Abs(got-1796.6) > 1 {
		t.Fatalf("CyclesToKBps(265) = %.1f, want ~1796.6", got)
	}
	if m.CyclesToKBps(0) != 0 {
		t.Fatal("zero period should give zero rate")
	}
}

func TestVariantDifferences(t *testing.T) {
	sky, kaby, coffee := SkylakeE3(), KabyLakeI7(), CoffeeLakeI5()
	if kaby.LLC.SizeBytes <= sky.LLC.SizeBytes {
		t.Error("Kaby Lake LLC should be larger than Skylake's")
	}
	if coffee.Cores != 6 || kaby.Cores != 6 {
		t.Error("i5-9400/i7-8700K should have 6 cores")
	}
}
