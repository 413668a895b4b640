// The allocation gate runs without the race detector: -race instruments
// allocations and would skew AllocsPerRun.
//go:build !race

package simclock

import "testing"

// TestTickerFireAllocsZero pins the ticker's steady state: a firing
// re-aims the ticker's one event with Rearm instead of scheduling a
// fresh event and closure.
func TestTickerFireAllocsZero(t *testing.T) {
	e := NewEngine()
	ticks := 0
	for i := 0; i < 64; i++ {
		NewTicker(e, 1, func(Time) { ticks++ })
	}
	e.Run(2)
	allocs := testing.AllocsPerRun(50, func() { e.Run(e.Now() + 1) })
	if allocs != 0 {
		t.Fatalf("a round of 64 ticker firings allocated %v objects, want 0", allocs)
	}
	if ticks != 64*53 {
		t.Fatalf("%d ticks, want %d", ticks, 64*53)
	}
}
