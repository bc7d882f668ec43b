package runner

import (
	"io"
	"reflect"
	"sync"
	"testing"

	"streamline/internal/rng"
)

func TestPoolGetPutKeyed(t *testing.T) {
	p := NewPool[int](2)
	if _, ok := p.Get(1); ok {
		t.Fatal("empty pool returned a value")
	}
	p.Put(1, 10)
	p.Put(2, 20)
	if v, ok := p.Get(1); !ok || v != 10 {
		t.Fatalf("Get(1) = %d, %v; want 10, true", v, ok)
	}
	// A value stored under one key must never surface under another.
	if _, ok := p.Get(1); ok {
		t.Fatal("key 1 should be empty")
	}
	if v, ok := p.Get(2); !ok || v != 20 {
		t.Fatalf("Get(2) = %d, %v; want 20, true", v, ok)
	}
}

func TestPoolPerKeyCap(t *testing.T) {
	p := NewPool[int](2)
	for i := 0; i < 5; i++ {
		p.Put(7, i)
	}
	if n := p.Idle(7); n != 2 {
		t.Fatalf("pool retained %d values, cap is 2", n)
	}
}

func TestPoolConcurrentCheckouts(t *testing.T) {
	p := NewPool[*int](8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				v, ok := p.Get(3)
				if !ok {
					v = new(int)
				}
				*v++
				p.Put(3, v)
			}
		}()
	}
	wg.Wait()
	total := 0
	for {
		v, ok := p.Get(3)
		if !ok {
			break
		}
		total += *v
	}
	if total != 8*1000 {
		t.Fatalf("increments lost or duplicated: %d != %d", total, 8*1000)
	}
}

// TestHookDoesNotInfluenceResults pins that a progress hook is observational
// only: the same sweep returns identical results with a nil hook, the stock
// Progress hook, and at any worker count and dependency shape —
// Event.Elapsed and Event.SegmentsStolen must never feed back into what
// Execute returns.
func TestHookDoesNotInfluenceResults(t *testing.T) {
	specs := sweep("hooktest", 8, 4)
	fn := func(spec Spec, seed uint64) ([4]uint64, error) {
		x := rng.New(seed)
		var out [4]uint64
		for i := range out {
			out[i] = x.Uint64()
		}
		return out, nil
	}
	ref, err := Execute(specs, nil, fn, Options{Root: 42, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range depShapes(8, 4) {
		for _, opt := range []Options{
			{Root: 42, Workers: 1, Hook: Progress(io.Discard)},
			{Root: 42, Workers: 8},
			{Root: 42, Workers: 8, Hook: Progress(io.Discard)},
		} {
			got, err := Execute(specs, shape.deps, fn, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("%s: results differ for workers=%d hook=%v", shape.name, opt.Workers, opt.Hook != nil)
			}
		}
	}
}
