// Fixture: correct lifecycle implementations the analyzer must not flag.
package fixture

// covered exercises the main coverage forms: direct assignment, deep slice
// copy, composite-literal keys, transitive same-package helpers, and a
// skip-annotated config field.
type covered struct {
	hits uint64
	warm []uint32
	ways int //detlint:lifecycle-skip immutable geometry fixed at construction
}

func (c *covered) Reset(seed int64) {
	c.hits = 0
	c.clearWarm()
}

// clearWarm is reached transitively from Reset; its mention of warm counts.
func (c *covered) clearWarm() {
	for i := range c.warm {
		c.warm[i] = 0
	}
}

func (c *covered) Clone() *covered {
	n := &covered{hits: c.hits, ways: c.ways}
	n.warm = append([]uint32(nil), c.warm...)
	return n
}

func (c *covered) CopyFrom(src *covered) {
	if len(c.warm) != len(src.warm) {
		panic("shape mismatch")
	}
	c.hits = src.hits
	copy(c.warm, src.warm)
}

// valuecopy relies on a whole-receiver value copy: with only value-typed
// fields, `n := *v` copies everything.
type valuecopy struct {
	a uint64
	b [4]int32
}

func (v *valuecopy) Reset(seed int64) {
	*v = valuecopy{}
}

func (v *valuecopy) Clone() *valuecopy {
	n := *v
	return &n
}

func (v *valuecopy) CopyFrom(src *valuecopy) {
	*v = *src
}

// terminalGuard checks a panicking helper called from a guard: a guard whose
// body calls an always-panicking function is still a guard, so the field
// reads inside it do not count, but the real copies below do.
type terminalGuard struct {
	buf []byte
}

func mismatch(what string) {
	panic("lifecycle mismatch: " + what)
}

func (t *terminalGuard) Reset(seed int64) {
	for i := range t.buf {
		t.buf[i] = 0
	}
}

func (t *terminalGuard) Clone() *terminalGuard {
	return &terminalGuard{buf: append([]byte(nil), t.buf...)}
}

func (t *terminalGuard) CopyFrom(src *terminalGuard) {
	if len(t.buf) != len(src.buf) {
		mismatch("buf")
	}
	copy(t.buf, src.buf)
}

// resetOnly declares no Clone, so it is not a lifecycle struct and its
// uncovered field is no finding.
type resetOnly struct {
	n int
}

func (r *resetOnly) Reset(seed int64) {}

// cloneOnly declares only Clone, which covers every field.
type cloneOnly struct {
	n    int
	hist []uint16
}

func (c *cloneOnly) clone() *cloneOnly {
	return &cloneOnly{n: c.n, hist: append([]uint16(nil), c.hist...)}
}

// standalone shows a skip on a line of its own covering the field below it.
type standalone struct {
	n int
	//detlint:lifecycle-skip shared lookup table, immutable after construction
	table []uint8
}

func (s *standalone) Clone() *standalone {
	return &standalone{n: s.n}
}
