// Warmup record/replay (see DESIGN.md "State lifecycle"). A warmed
// hierarchy splits into two kinds of state. Structural state — which lines
// sit where, tree-PLRU bits, prefetcher training, TLB entries, statistics —
// is a pure function of the access sequence and so seed-independent as long
// as no pseudo-random decision fed back into it. Seed-dependent state — the
// LLC policy's RNG/ages/duel counter and the DRAM model's RNG and
// bank/row/stat evolution — is a function of the seed plus the *inputs* those
// components saw. A WarmLog captures exactly those inputs while a builder
// runs the warmup once; ReplayWarmup then rebuilds the seed-dependent state
// for any other seed by resetting the components with that seed's derived
// values and re-feeding the log, while a Clone supplies the structural state.
// The one event that lets randomness feed back into structure is an LLC
// eviction (the victim way is policy-chosen), so recording aborts if one
// occurs — it never does under the default warmup, which touches far fewer
// lines per set than the LLC has ways. Flush and random-fill configurations
// abort for the same reason.

package hier

import (
	"errors"

	"streamline/internal/cache"
	"streamline/internal/mem"
)

type llcKind uint8

const (
	llcHit llcKind = iota
	llcInsert
	llcInsertPf
)

type llcEvent struct {
	set  int32
	way  int32
	kind llcKind
	dom  uint8
}

type dramEvent struct {
	now  uint64
	addr mem.Addr
}

// WarmLog records the seed-dependent side effects of one warmup run.
type WarmLog struct {
	llc     []llcEvent
	dramEvs []dramEvent
	aborted bool
}

// Aborted reports whether the recorded traffic included an event replay
// cannot reproduce (LLC eviction, flush, or a random-fill configuration);
// an aborted log must be discarded.
func (w *WarmLog) Aborted() bool { return w.aborted }

func (w *WarmLog) abort() {
	w.aborted = true
	w.llc = nil
	w.dramEvs = nil
}

func (w *WarmLog) llcAccess(dom uint8, set int, r cache.Result) {
	if w.aborted {
		return
	}
	if r.DidEvict {
		w.abort()
		return
	}
	kind := llcInsert
	if r.Hit {
		kind = llcHit
	}
	w.llc = append(w.llc, llcEvent{set: int32(set), way: int32(r.Way), kind: kind, dom: dom})
}

func (w *WarmLog) llcPrefetch(dom uint8, set int, r cache.Result) {
	if w.aborted || r.Hit { // present line: prefetch touched no policy state
		return
	}
	if r.DidEvict {
		w.abort()
		return
	}
	w.llc = append(w.llc, llcEvent{set: int32(set), way: int32(r.Way), kind: llcInsertPf, dom: dom})
}

func (w *WarmLog) dram(now uint64, a mem.Addr) {
	if w.aborted {
		return
	}
	w.dramEvs = append(w.dramEvs, dramEvent{now: now, addr: a})
}

// StartRecording begins capturing the seed-dependent side effects of the
// hierarchy's traffic into a fresh WarmLog. Random-fill configurations abort
// immediately: every miss consults the fill RNG, so their structure is
// seed-dependent.
func (h *Hierarchy) StartRecording() *WarmLog {
	w := &WarmLog{}
	if h.fillRnd != nil {
		w.aborted = true
	}
	h.rec = w
	return w
}

// StopRecording detaches and returns the active log (nil if none).
func (h *Hierarchy) StopRecording() *WarmLog {
	w := h.rec
	h.rec = nil
	return w
}

// ReplayWarmup rebuilds the hierarchy's seed-dependent state for seed from a
// log recorded on a structurally identical hierarchy (typically: h is a
// Clone of the post-warmup builder). The LLC policies and the DRAM model are
// reset with seed's derived values and fed the recorded events; everything
// else — the structural state replay cannot affect — is taken as-is from h.
func (h *Hierarchy) ReplayWarmup(seed uint64, log *WarmLog) error {
	if log == nil || log.aborted {
		return errors.New("hier: cannot replay an aborted or missing warm log")
	}
	if h.opt.LLCPolicy != nil {
		return errors.New("hier: cannot replay onto a caller-supplied LLC policy")
	}
	for d := range h.llcs {
		// With no caller-supplied policy every LLC is NewSkylakeLLC's.
		h.llcs[d].Policy().(*cache.RRIP).Reset(llcSeed(seed, d))
	}
	for _, ev := range log.llc {
		pol := h.llcs[ev.dom].Policy()
		s, w := int(ev.set), int(ev.way)
		switch ev.kind {
		case llcHit:
			pol.OnHit(s, w)
		case llcInsert:
			pol.OnMiss(s)
			pol.OnInsert(s, w)
		case llcInsertPf:
			if pp, ok := pol.(cache.PrefetchAware); ok {
				pp.OnInsertPrefetch(s, w)
			} else {
				pol.OnInsert(s, w)
			}
		}
	}
	h.dram.Reset(seed ^ dramSeedXor)
	for _, ev := range log.dramEvs {
		h.dram.Latency(ev.now, ev.addr)
	}
	return nil
}
