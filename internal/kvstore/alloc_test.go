// The allocation gate runs without the race detector: -race instruments
// allocations and would skew AllocsPerRun.
//go:build !race

package kvstore

import (
	"testing"

	"gemini/internal/simclock"
)

// TestKeepAliveAllocsZero pins the heartbeat primitive's cost: renewing
// a live lease with nothing due to expire touches only the expiry heap
// and allocates nothing, at any lease count.
func TestKeepAliveAllocsZero(t *testing.T) {
	clk := &fakeClock{}
	s := New(clk.now)
	ids := make([]LeaseID, 1024)
	for i := range ids {
		var err error
		if ids[i], err = s.Grant(15); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		clk.t += simclock.Time(5)
		for _, id := range ids {
			if err := s.KeepAlive(id); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("a heartbeat round over 1024 leases allocated %v objects, want 0", allocs)
	}
}
