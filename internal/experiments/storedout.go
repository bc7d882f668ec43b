// Out-level result cache for experiment points that never reach
// Engine.Run: attack baselines built directly on internal/attacks and raw
// hierarchy probes like Table 1's miss-rate sweep. Every channel run goes
// through Engine.Run's own store path (internal/core/store.go); this
// layer covers the remainder, through the same handle (Opts.Engine's
// Store), so the whole sweep completes without simulating.
//
// Keying: a cached Out is addressed by (schema, descriptor, seed). The
// descriptor is an explicit string naming the experiment, every parameter
// the point varies, and — critically — the bit count, because point labels
// alone alias across -quick/-full scales. The seed completes the key: it
// is derived from (root seed, experiment, point, rep), so two sweeps with
// different root seeds never share entries.
//
// Legality: unlike Engine.Run's store, whose key re-encodes the entire
// Config, a descriptor cannot see the code behind it — changing an
// attack's implementation without changing its descriptor would serve
// stale Outs. The contract is therefore code identity: storedOutSchema
// versions the descriptor vocabulary and codec (bump it when either
// changes meaning), and CI keys its persisted store on a hash of the
// source tree, so any code change starts from a cold store. See
// DESIGN.md §9.
package experiments

import (
	"encoding/binary"
	"fmt"
	"math"

	"streamline/internal/resultstore"
)

// storedOutSchema versions the descriptor vocabulary and the Out codec.
// Bumping it changes every key, retiring old entries in place.
const storedOutSchema = "streamline-exp-out-v1"

// storedOut returns compute's Out, serving it from the engine's result
// store when a previous run with the same (desc, seed) left one behind.
// With no store, or an Out whose Data kind the codec does not know, it is
// a transparent pass-through.
func (o Opts) storedOut(desc string, seed uint64, compute func() (Out, error)) (Out, error) {
	st := o.Engine.Store()
	if st == nil {
		return compute()
	}
	key := outKey(desc, seed)
	if blob, ok := st.Get(key); ok {
		if out, ok := decodeOut(blob); ok {
			return out, nil
		}
		// Unreachable by construction — the schema tag in the key retires
		// entries whose encoding it cannot read — but recompute defensively.
	}
	out, err := compute()
	if err != nil {
		return Out{}, err
	}
	if blob, ok := encodeOut(out); ok {
		st.Put(key, blob)
	}
	return out, nil
}

// storedRun lifts storedOut over a point's per-run function, folding the
// rep index into the descriptor (the seed already separates reps; the
// descriptor keeps the entry self-describing).
func (o Opts) storedRun(desc string, run func(int, uint64) (Out, error)) func(int, uint64) (Out, error) {
	return func(rep int, seed uint64) (Out, error) {
		return o.storedOut(fmt.Sprintf("%s rep=%d", desc, rep), seed, func() (Out, error) {
			return run(rep, seed)
		})
	}
}

// outKey derives the store key for one (descriptor, seed) pair. NUL
// separators keep distinct (schema, desc) pairs from concatenating into
// the same byte string.
func outKey(desc string, seed uint64) resultstore.Key {
	b := make([]byte, 0, len(storedOutSchema)+len(desc)+2+8)
	b = append(b, storedOutSchema...)
	b = append(b, 0)
	b = append(b, desc...)
	b = append(b, 0)
	b = binary.LittleEndian.AppendUint64(b, seed)
	return resultstore.KeyOf(b)
}

// Out.Data kinds the codec understands. Points returning other kinds
// (e.g. fig7's gap trace) are simply not cached at this layer — encodeOut
// reports false and storedOut passes the Out through uncached.
const (
	outDataNil     = 0 // Data == nil
	outDataPair    = 1 // [2]string (attack name, threat model)
	outDataString  = 2 // string (e.g. universality's ARM verdict)
	outMetricsNil  = 0
	outMetricsSome = 1
)

// encodeOut serializes an Out. The bool reports whether the Data kind is
// representable; nil-ness of Metrics survives the round trip.
func encodeOut(out Out) ([]byte, bool) {
	b := make([]byte, 0, 16+8*len(out.Metrics))
	if out.Metrics == nil {
		b = append(b, outMetricsNil)
	} else {
		b = append(b, outMetricsSome)
		b = binary.LittleEndian.AppendUint64(b, uint64(len(out.Metrics)))
		for _, m := range out.Metrics {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m))
		}
	}
	switch d := out.Data.(type) {
	case nil:
		b = append(b, outDataNil)
	case [2]string:
		b = append(b, outDataPair)
		b = appendOutString(b, d[0])
		b = appendOutString(b, d[1])
	case string:
		b = append(b, outDataString)
		b = appendOutString(b, d)
	default:
		return nil, false
	}
	return b, true
}

// decodeOut is encodeOut's bounds-checked inverse; false on any structural
// mismatch (wrong flag byte, short buffer, trailing bytes).
func decodeOut(b []byte) (Out, bool) {
	var out Out
	if len(b) < 1 {
		return Out{}, false
	}
	switch b[0] {
	case outMetricsNil:
		b = b[1:]
	case outMetricsSome:
		b = b[1:]
		if len(b) < 8 {
			return Out{}, false
		}
		n := binary.LittleEndian.Uint64(b)
		b = b[8:]
		if uint64(len(b)) < 8*n {
			return Out{}, false
		}
		out.Metrics = make([]float64, n)
		for i := range out.Metrics {
			out.Metrics[i] = math.Float64frombits(binary.LittleEndian.Uint64(b))
			b = b[8:]
		}
	default:
		return Out{}, false
	}
	if len(b) < 1 {
		return Out{}, false
	}
	kind := b[0]
	b = b[1:]
	switch kind {
	case outDataNil:
	case outDataPair:
		var pair [2]string
		var ok bool
		for i := range pair {
			if pair[i], b, ok = takeOutString(b); !ok {
				return Out{}, false
			}
		}
		out.Data = pair
	case outDataString:
		s, rest, ok := takeOutString(b)
		if !ok {
			return Out{}, false
		}
		out.Data = s
		b = rest
	default:
		return Out{}, false
	}
	if len(b) != 0 {
		return Out{}, false
	}
	return out, true
}

func appendOutString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(s)))
	return append(b, s...)
}

func takeOutString(b []byte) (string, []byte, bool) {
	if len(b) < 8 {
		return "", nil, false
	}
	n := binary.LittleEndian.Uint64(b)
	b = b[8:]
	if uint64(len(b)) < n {
		return "", nil, false
	}
	return string(b[:n]), b[n:], true
}
