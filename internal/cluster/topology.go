package cluster

import "fmt"

// Topology maps machine ranks onto racks (placement groups that share a
// failure domain — a power feed, a top-of-rack switch, an AZ spread
// group). Correlated-failure injection and rack-aware placement both
// consume it. Ranks fill racks contiguously: rack r holds ranks
// [r*rackSize, (r+1)*rackSize).
type Topology struct {
	n        int
	rackSize int
}

// NewTopology builds a topology of n machines in racks of rackSize.
// rackSize must divide n so every rack is full.
func NewTopology(n, rackSize int) (Topology, error) {
	if n <= 0 {
		return Topology{}, fmt.Errorf("cluster: machine count must be positive, got %d", n)
	}
	if rackSize <= 0 {
		return Topology{}, fmt.Errorf("cluster: rack size must be positive, got %d", rackSize)
	}
	if n%rackSize != 0 {
		return Topology{}, fmt.Errorf("cluster: rack size %d does not divide machine count %d", rackSize, n)
	}
	return Topology{n: n, rackSize: rackSize}, nil
}

// Machines returns the number of machines.
func (t Topology) Machines() int { return t.n }

// RackSize returns the number of machines per rack.
func (t Topology) RackSize() int { return t.rackSize }

// Racks returns the number of racks.
func (t Topology) Racks() int { return t.n / t.rackSize }

// Rack returns the rack holding the given rank.
func (t Topology) Rack(rank int) int {
	if rank < 0 || rank >= t.n {
		panic(fmt.Sprintf("cluster: rank %d out of range [0,%d)", rank, t.n))
	}
	return rank / t.rackSize
}

// RackMembers returns the ranks in a rack, ascending.
func (t Topology) RackMembers(rack int) []int {
	if rack < 0 || rack >= t.Racks() {
		panic(fmt.Sprintf("cluster: rack %d out of range [0,%d)", rack, t.Racks()))
	}
	out := make([]int, t.rackSize)
	for i := range out {
		out[i] = rack*t.rackSize + i
	}
	return out
}

// AllRacks returns every rack's members, rack by rack.
func (t Topology) AllRacks() [][]int {
	out := make([][]int, t.Racks())
	for r := range out {
		out[r] = t.RackMembers(r)
	}
	return out
}
