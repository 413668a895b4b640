// The allocation gate runs without the race detector: -race instruments
// allocations and would skew AllocsPerRun.
//go:build !race

package kvstore

import (
	"fmt"
	"testing"

	"gemini/internal/simclock"
)

// TestKeepAliveAllocsZero pins the heartbeat primitive's cost: renewing
// a live lease with nothing due to expire touches only the expiry heap
// and allocates nothing, at any lease count — also with a prefix watcher
// registered on keys held under those leases, since a renewal queues no
// event and so never enters flush.
func TestKeepAliveAllocsZero(t *testing.T) {
	for _, watched := range []bool{false, true} {
		name := "bare"
		if watched {
			name = "watched"
		}
		t.Run(name, func(t *testing.T) {
			clk := &fakeClock{}
			s := New(clk.now)
			if watched {
				s.Watch("hb/", func(Event) {})
			}
			ids := make([]LeaseID, 1024)
			for i := range ids {
				var err error
				if ids[i], err = s.Grant(15); err != nil {
					t.Fatal(err)
				}
				if watched {
					if _, err := s.Put(fmt.Sprintf("hb/%04d", i), "0", ids[i]); err != nil {
						t.Fatal(err)
					}
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
		})
	}
}
