// State lifecycle for the prefetcher models (see DESIGN.md "State
// lifecycle"): Clone deep-copies a prefetcher's training state, so a cloned
// hierarchy carries it.

package prefetch

// Lifecycle is implemented by prefetchers that support deep copying. All
// stock prefetchers implement it.
type Lifecycle interface {
	Prefetcher
	// Clone returns a deep copy evolving independently of the receiver.
	Clone() Prefetcher
}

// Clone implements Lifecycle.
func (None) Clone() Prefetcher { return None{} }

// Clone implements Lifecycle.
func (p *NextLine) Clone() Prefetcher {
	c := *p
	return &c
}

// Clone implements Lifecycle.
func (p *Streamer) Clone() Prefetcher {
	c := *p
	c.pages = append([]uint64(nil), p.pages...)
	c.meta = append([]streamMeta(nil), p.meta...)
	return &c
}

// Clone implements Lifecycle.
func (p *Stride) Clone() Prefetcher {
	c := *p
	return &c
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
