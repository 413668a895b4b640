package netsim

// Slab sizes, in objects. A slab starts small so a short-lived fabric or
// copier pays for a handful of objects, doubles as it fills, and stops
// growing at slabMax so one long-held object pins a bounded block.
const (
	slabMin = 8
	slabMax = 256
)

// slab hands out pointers to objects carved from shared backing arrays:
// one allocation per block instead of one per object. Objects are never
// reused, so a pointer stays valid for as long as its holder keeps it —
// and keeps its whole block reachable while it does.
type slab[T any] struct {
	block []T
}

// alloc returns a pointer to a fresh zero T.
func (s *slab[T]) alloc() *T {
	if len(s.block) == cap(s.block) {
		n := min(max(2*cap(s.block), slabMin), slabMax)
		s.block = make([]T, 0, n)
	}
	s.block = s.block[:len(s.block)+1]
	return &s.block[len(s.block)-1]
}
