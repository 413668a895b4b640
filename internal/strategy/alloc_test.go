// The allocation gate runs without the race detector, like the other
// AllocsPerRun gates: race instrumentation may allocate on its own.
//go:build !race

package strategy

import "testing"

// Index runs at every health observation (the strategy.active gauge),
// so it must be a plain lookup: no Names() copy, no sort.
func TestIndexAllocsZero(t *testing.T) {
	n := testing.AllocsPerRun(100, func() {
		if Index("tiered") != 3 || Index("nope") != -1 {
			t.Fatal("Index returned the wrong position")
		}
	})
	if n != 0 {
		t.Fatalf("Index allocates %.1f/op, want 0", n)
	}
}
