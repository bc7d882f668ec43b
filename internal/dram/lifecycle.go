// State lifecycle for the DRAM model (see DESIGN.md "State lifecycle"):
// Reset reseeds a cloned warm snapshot's model during warm replay, and Clone
// deep-copies it.

package dram

// Reset reinitializes the model in place to exactly the state New(m.cfg,
// seed) would produce: rows closed, banks and channel idle, statistics
// zeroed, jitter RNG reseeded. It allocates nothing.
func (m *Model) Reset(seed uint64) {
	m.x.Reseed(seed)
	for i := range m.rowOpen {
		m.rowOpen[i] = -1
	}
	for i := range m.bankFree {
		m.bankFree[i] = 0
	}
	for i := range m.bankLastUse {
		m.bankLastUse[i] = 0
	}
	m.chanFree = 0
	m.Accesses = 0
	m.RowHits = 0
	m.RowMisses = 0
	m.Conflicts = 0
	m.FastTails = 0
}

// Clone returns a deep copy of the model that evolves independently of the
// receiver.
func (m *Model) Clone() *Model {
	c := *m
	c.x = m.x.Clone()
	c.rowOpen = append([]int64(nil), m.rowOpen...)
	c.bankFree = append([]uint64(nil), m.bankFree...)
	c.bankLastUse = append([]uint64(nil), m.bankLastUse...)
	return &c
}
