// State lifecycle for the TLB model (see DESIGN.md "State lifecycle"):
// Clone deep-copies both levels and the statistics, so a cloned hierarchy
// carries its TLBs.

package tlb

// clone deep-copies one level.
func (l *level) clone() *level {
	c := *l
	c.tags = append([]uint64(nil), l.tags...)
	c.stamp = append([]uint32(nil), l.stamp...)
	return &c
}

// Clone returns a deep copy of the TLB that evolves independently of the
// receiver.
func (t *TLB) Clone() *TLB {
	c := *t
	c.l1 = t.l1.clone()
	c.l2 = t.l2.clone()
	return &c
}
