// Fixture: lifecycle violations the analyzer must catch.
package fixture

// counter declares Clone, Reset and CopyFrom, so every field must be
// covered by all three methods.
type counter struct {
	hits  uint64
	warm  []uint32
	extra int // covered nowhere
}

func (c *counter) Reset(seed int64) { // want `fixture\.counter\.warm is not covered by Reset` `fixture\.counter\.extra is not covered by Reset`
	c.hits = 0
}

func (c *counter) Clone() *counter { // want `fixture\.counter\.extra is not covered by Clone`
	return &counter{
		hits: c.hits,
		warm: c.warm, // want `fixture\.counter\.warm is a reference field aliased rather than deep-copied by Clone`
	}
}

func (c *counter) CopyFrom(src *counter) { // want `fixture\.counter\.extra is not covered by CopyFrom`
	c.hits = src.hits
	copy(c.warm, src.warm)
}

// guarded shows that reading a field in a panic-guard shape check does NOT
// count as coverage: buf appears in CopyFrom's guard but is never copied.
type guarded struct {
	buf []byte
	n   int
}

func (g *guarded) Reset(seed int64) {
	for i := range g.buf {
		g.buf[i] = 0
	}
	g.n = 0
}

func (g *guarded) Clone() *guarded {
	c := &guarded{n: g.n}
	c.buf = append([]byte(nil), g.buf...)
	return c
}

func (g *guarded) CopyFrom(src *guarded) { // want `fixture\.guarded\.buf is not covered by CopyFrom`
	if len(g.buf) != len(src.buf) {
		panic("shape mismatch")
	}
	g.n = src.n
}

// aliased shows shallow aliasing by plain assignment (not composite key).
type aliased struct {
	m map[uint64]int
}

func (a *aliased) Reset(seed int64) {
	for k := range a.m {
		delete(a.m, k)
	}
}

func (a *aliased) Clone() *aliased {
	c := &aliased{}
	c.m = a.m // want `fixture\.aliased\.m is a reference field aliased rather than deep-copied by Clone`
	return c
}

func (a *aliased) CopyFrom(src *aliased) {
	for k := range src.m {
		a.m[k] = src.m[k]
	}
}

// badskip has a skip annotation with no reason — itself a finding, and it
// exempts nothing.
type badskip struct {
	cfg *int //detlint:lifecycle-skip // want `lifecycle-skip needs a reason`
}

func (b *badskip) Reset(seed int64)      {}                              // want `fixture\.badskip\.cfg is not covered by Reset`
func (b *badskip) Clone() *badskip       { return &badskip{cfg: b.cfg} } // want `fixture\.badskip\.cfg is a reference field aliased`
func (b *badskip) CopyFrom(src *badskip) {}                              // want `fixture\.badskip\.cfg is not covered by CopyFrom`

// cloneOnly declares nothing but Clone: Clone alone must cover every field.
type cloneOnly struct {
	n    int
	hist []uint16
	last uint64
}

func (c *cloneOnly) Clone() *cloneOnly { // want `fixture\.cloneOnly\.last is not covered by Clone`
	return &cloneOnly{n: c.n, hist: append([]uint16(nil), c.hist...)}
}

// reseedable declares Reset and Clone but no CopyFrom: both methods it has
// are checked, and its Reset forgets a field.
type reseedable struct {
	state uint64
	steps int
}

func (r *reseedable) Reset(seed uint64) { // want `fixture\.reseedable\.steps is not covered by Reset`
	r.state = seed
}

func (r *reseedable) Clone() *reseedable {
	c := *r
	return &c
}

// trailing shows that a skip trailing one field does not reach the field
// on the next line.
type trailing struct {
	cfg  int //detlint:lifecycle-skip immutable configuration fixed at construction
	part *int
}

func (t *trailing) Clone() *trailing { // want `fixture\.trailing\.part is not covered by Clone`
	return &trailing{cfg: t.cfg}
}
