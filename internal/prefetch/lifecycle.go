// State lifecycle for the prefetcher models (see DESIGN.md "State
// lifecycle"). Prefetchers are fully deterministic, so the in-place
// reinitialization half of the lifecycle is the pre-existing Reset (no
// seed); this file adds the deep-copy half.

package prefetch

import "fmt"

// Lifecycle is implemented by prefetchers that support deep copying and
// in-place state transfer on top of Prefetcher's Reset. All stock
// prefetchers implement it.
type Lifecycle interface {
	Prefetcher
	// Clone returns a deep copy evolving independently of the receiver.
	Clone() Prefetcher
	// CopyStateFrom overwrites the prefetcher's training state with src's.
	// It panics if src is a different type or shape — callers pair
	// prefetchers by config fingerprint, so a mismatch is a programming
	// error.
	CopyStateFrom(src Prefetcher)
}

// lifecycleMismatch panics with a uniform diagnostic for CopyStateFrom
// type/shape violations.
func lifecycleMismatch(dst, src Prefetcher) {
	panic(fmt.Sprintf("prefetch: CopyStateFrom between mismatched prefetchers %s <- %s", dst.Name(), src.Name()))
}

// Clone implements Lifecycle.
func (None) Clone() Prefetcher { return None{} }

// CopyStateFrom implements Lifecycle.
func (None) CopyStateFrom(src Prefetcher) {
	if _, ok := src.(None); !ok {
		lifecycleMismatch(None{}, src)
	}
}

// Clone implements Lifecycle.
func (p *NextLine) Clone() Prefetcher {
	c := *p
	return &c
}

// CopyStateFrom implements Lifecycle.
func (p *NextLine) CopyStateFrom(src Prefetcher) {
	s, ok := src.(*NextLine)
	if !ok || p.g != s.g {
		lifecycleMismatch(p, src)
	}
	p.last, p.lastSet = s.last, s.lastSet
}

// Clone implements Lifecycle.
func (p *Streamer) Clone() Prefetcher {
	c := *p
	c.pages = append([]uint64(nil), p.pages...)
	c.meta = append([]streamMeta(nil), p.meta...)
	return &c
}

// CopyStateFrom implements Lifecycle.
func (p *Streamer) CopyStateFrom(src Prefetcher) {
	s, ok := src.(*Streamer)
	if !ok || p.g != s.g || len(p.pages) != len(s.pages) ||
		p.Window != s.Window || p.Degree != s.Degree || p.ConfThreshold != s.ConfThreshold {
		lifecycleMismatch(p, src)
	}
	copy(p.pages, s.pages)
	copy(p.meta, s.meta)
	p.last, p.prev = s.last, s.prev
	p.clock = s.clock
}

// Clone implements Lifecycle.
func (p *Stride) Clone() Prefetcher {
	c := *p
	return &c
}

// CopyStateFrom implements Lifecycle.
func (p *Stride) CopyStateFrom(src Prefetcher) {
	s, ok := src.(*Stride)
	if !ok || p.g != s.g || p.Degree != s.Degree || p.ConfThreshold != s.ConfThreshold {
		lifecycleMismatch(p, src)
	}
	p.lastAddr, p.lastSet = s.lastAddr, s.lastSet
	p.delta, p.conf = s.delta, s.conf
}

// Clone implements Lifecycle: parts are cloned recursively and the
// devirtualized pointers re-derived, so a cloned stock composite keeps the
// fused fast path.
func (p *Composite) Clone() Prefetcher {
	parts := make([]Prefetcher, len(p.parts))
	for i, part := range p.parts {
		parts[i] = part.(Lifecycle).Clone()
	}
	return NewComposite(p.g, parts...)
}

// CopyStateFrom implements Lifecycle.
func (p *Composite) CopyStateFrom(src Prefetcher) {
	s, ok := src.(*Composite)
	if !ok || p.g != s.g || len(p.parts) != len(s.parts) {
		lifecycleMismatch(p, src)
	}
	for i, part := range p.parts {
		part.(Lifecycle).CopyStateFrom(s.parts[i])
	}
}
