package mem

// Contains reports whether a falls inside the region.
func (r Region) Contains(a Addr) bool {
	return a >= r.Base && uint64(a) < uint64(r.Base)+uint64(r.Size)
}
