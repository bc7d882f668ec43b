package cache

import "streamline/internal/mem"

// Test probes into cache state that no shipped caller reads.

// OccupancyOf returns how many valid lines currently sit in l's set.
func (c *Cache) OccupancyOf(l mem.Line) int {
	return int(c.setOcc[c.SetOf(l)])
}

// occupied returns the total number of valid lines, summed from the
// per-set occupancy counts.
func (c *Cache) occupied() int {
	n := 0
	for _, o := range c.setOcc {
		n += int(o)
	}
	return n
}

// LinesInSet appends the valid lines of the given set to dst and returns it.
func (c *Cache) LinesInSet(set int, dst []mem.Line) []mem.Line {
	for w := 0; w < c.ways; w++ {
		if l, ok := c.LineAt(set, w); ok {
			dst = append(dst, l)
		}
	}
	return dst
}

// OwnerOf returns the domain owning l's way, and whether l is resident.
func (c *Cache) OwnerOf(l mem.Line) (int, bool) {
	q := c.quota
	if q == nil {
		return 0, false
	}
	set := c.SetOf(l)
	base := set * c.ways
	w := c.find(set, base, l)
	if w < 0 {
		return 0, false
	}
	return int(q.owner[base+w]), true
}

// DomainOccupancy returns how many valid lines domain dom holds in set.
func (c *Cache) DomainOccupancy(set, dom int) int {
	return int(c.quota.occ[set*c.quota.domains+dom])
}

// PSel exposes the DRRIP selector (positive favours SRRIP).
func (p *RRIP) PSel() int { return p.psel }
