package experiments

import (
	"reflect"
	"testing"

	"streamline/internal/core"
	"streamline/internal/resultstore"
	"streamline/internal/statetest"
)

func TestOutCodecRoundTrip(t *testing.T) {
	cases := []Out{
		{},
		{Metrics: []float64{}},
		{Metrics: []float64{1.5, -0, 3e300}},
		{Metrics: []float64{42}, Data: [2]string{"flush+reload", "cross-core"}},
		{Metrics: []float64{1, 2}, Data: "unavailable (no unprivileged flush)"},
		{Data: ""},
	}
	for i, out := range cases {
		blob, ok := encodeOut(out)
		if !ok {
			t.Fatalf("case %d: encodeOut refused a supported Out", i)
		}
		back, ok := decodeOut(blob)
		if !ok {
			t.Fatalf("case %d: decodeOut rejected its own encoding", i)
		}
		if !reflect.DeepEqual(out, back) {
			t.Errorf("case %d: round trip changed the Out\n got %#v\nwant %#v", i, back, out)
		}
	}
}

// A new Out field must be added to the codec (or deliberately rejected)
// before this audit passes again — the same discipline store_test.go in
// internal/core applies to Result.
func TestOutCodecFieldAudit(t *testing.T) {
	statetest.Fields(t, Out{}, "Metrics", "Data")
}

func TestOutCodecRejectsUnknownData(t *testing.T) {
	if _, ok := encodeOut(Out{Data: []core.GapSample{{}}}); ok {
		t.Fatal("encodeOut accepted a Data kind the decoder cannot rebuild")
	}
}

func TestOutCodecRejectsCorrupt(t *testing.T) {
	blob, ok := encodeOut(Out{Metrics: []float64{1, 2}, Data: [2]string{"a", "b"}})
	if !ok {
		t.Fatal("encodeOut refused a supported Out")
	}
	if _, ok := decodeOut(blob[:len(blob)-1]); ok {
		t.Error("decodeOut accepted a truncated blob")
	}
	if _, ok := decodeOut(append(append([]byte(nil), blob...), 0)); ok {
		t.Error("decodeOut accepted trailing bytes")
	}
	bad := append([]byte(nil), blob...)
	bad[0] = 7 // neither outMetricsNil nor outMetricsSome
	if _, ok := decodeOut(bad); ok {
		t.Error("decodeOut accepted a mangled metrics flag")
	}
}

func TestStoredOutServesAndFallsBack(t *testing.T) {
	st, err := resultstore.Open(t.TempDir(), resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := Opts{Engine: core.NewEngine(core.EngineOptions{Store: st})}

	calls := 0
	compute := func() (Out, error) {
		calls++
		return Out{Metrics: []float64{3.5}, Data: "v"}, nil
	}
	first, err := o.storedOut("test point bits=100", 7, compute)
	if err != nil {
		t.Fatal(err)
	}
	second, err := o.storedOut("test point bits=100", 7, compute)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times; the second call should have been served", calls)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("served Out differs from computed: %#v vs %#v", second, first)
	}

	// A different descriptor or seed misses.
	if _, err := o.storedOut("test point bits=200", 7, compute); err != nil {
		t.Fatal(err)
	}
	if _, err := o.storedOut("test point bits=100", 8, compute); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("compute ran %d times; descriptor and seed must both key the entry", calls)
	}

	// Uncacheable Data passes through without writing.
	writes := st.Stats().Writes
	for i := 0; i < 2; i++ {
		out, err := o.storedOut("uncacheable", 1, func() (Out, error) {
			calls++
			return Out{Data: []core.GapSample{{}}}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := out.Data.([]core.GapSample); !ok {
			t.Fatalf("pass-through mangled Data: %#v", out.Data)
		}
	}
	if calls != 5 {
		t.Fatalf("compute ran %d times; uncacheable Outs must recompute every call", calls)
	}
	if st.Stats().Writes != writes {
		t.Error("an uncacheable Out was written to the store")
	}
}

func TestStoredRunFoldsRepIntoKey(t *testing.T) {
	st, err := resultstore.Open(t.TempDir(), resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := Opts{Engine: core.NewEngine(core.EngineOptions{Store: st})}

	calls := 0
	run := o.storedRun("point", func(rep int, seed uint64) (Out, error) {
		calls++
		return Out{Metrics: []float64{float64(rep)}}, nil
	})
	// Same seed, different rep: distinct entries (reps normally get
	// distinct seeds from the runner; the descriptor keeps the entries
	// self-describing even if they did not).
	for _, rep := range []int{0, 1, 0, 1} {
		out, err := run(rep, 99)
		if err != nil {
			t.Fatal(err)
		}
		if int(out.Metrics[0]) != rep {
			t.Fatalf("rep %d served the wrong entry: %v", rep, out.Metrics)
		}
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times; two reps should compute once each", calls)
	}
}
