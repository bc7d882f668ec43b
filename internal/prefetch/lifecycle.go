// State lifecycle for the prefetcher models (see DESIGN.md "State
// lifecycle"): Clone deep-copies a prefetcher's training state, so a cloned
// hierarchy carries it.

package prefetch

import "streamline/internal/mem"

// Clone returns a deep copy evolving independently of the receiver.
func (p *NextLine) Clone() *NextLine {
	c := *p
	return &c
}

// Clone returns a deep copy evolving independently of the receiver.
func (p *Streamer) Clone() *Streamer {
	c := *p
	c.pages = append([]uint64(nil), p.pages...)
	c.meta = append([]streamMeta(nil), p.meta...)
	return &c
}

// Clone returns a deep copy evolving independently of the receiver.
func (p *Stride) Clone() *Stride {
	c := *p
	return &c
}

// Clone returns a deep copy evolving independently of the receiver: each
// part is cloned, and the clone gets its own dedup scratch.
func (p *Composite) Clone() *Composite {
	return &Composite{g: p.g, nl: p.nl.Clone(), st: p.st.Clone(), sd: p.sd.Clone(), seen: make([]mem.Line, 0, 8)}
}
