// The steady-state allocation gate runs without the race detector: -race
// instruments allocations and would skew AllocsPerRun.
//go:build !race

package netsim

import (
	"testing"

	"gemini/internal/simclock"
)

// TestSteadyStateFabricEventsDoNotAllocate pins the engine's core
// guarantee: once a fabric's scratch is warm, rate recomputation — settle,
// component collection, waterfill, ETA-heap maintenance, and event
// rearming — allocates nothing. TestFlowLifecycleAllocs below covers
// flow creation.
func TestSteadyStateFabricEventsDoNotAllocate(t *testing.T) {
	e := simclock.NewEngine()
	f := MustNewFabric(e, 32, Config{EgressBytesPerSec: 1e9})
	for i := 0; i < 32; i++ {
		f.StartFlow(i, (i+1)%32, 1e15, "bg", nil)
	}
	e.Run(1)
	// Each toggle re-rates node 1, which dirties it, re-collects its
	// component (the whole ring), re-waterfills 32 flows, fixes their
	// heap ETAs, and rearms both persistent events — the full
	// steady-state event path.
	toggle := func(bytesPerSec float64) {
		f.SetNodeCapacity(1, bytesPerSec, bytesPerSec)
		e.Run(e.Now())
	}
	toggle(0.5e9)
	toggle(1e9)
	allocs := testing.AllocsPerRun(50, func() {
		toggle(0.5e9)
		toggle(1e9)
	})
	if allocs != 0 {
		t.Fatalf("steady-state fabric events allocate %v times/op, want 0", allocs)
	}
}

// TestFlowLifecycleAllocs pins the flow lifecycle itself: a warm ring
// round of 64 flows — start, startup window, rate recompute, completion,
// one callback shared by the round — costs no event and no allocation of
// its own. Flows come from the fabric's slab (one block per 256 flows
// once it has grown) and the start batches from its pool, so a round
// averages well under one allocation.
func TestFlowLifecycleAllocs(t *testing.T) {
	const n = 64
	e := simclock.NewEngine()
	f := MustNewFabric(e, n, Config{EgressBytesPerSec: 1e9, Alpha: 1e-3})
	remaining := 0
	onDone := func(fl *Flow) {
		if fl.State() == FlowDone {
			remaining--
		}
	}
	round := func() {
		remaining = n
		for m := 0; m < n; m++ {
			f.StartFlow(m, (m+1)%n, 1e6, "ring", onDone)
		}
		e.RunAll()
		if remaining != 0 {
			t.Fatalf("%d ring flows did not complete", remaining)
		}
	}
	for i := 0; i < 16; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(100, round); allocs > 1 {
		t.Fatalf("a warm %d-flow ring round allocates %v times, want ≤ 1", n, allocs)
	}
}

// TestCopierSteadyStateAllocs pins the copy channel's steady state: a
// warm Submit → completion reuses the channel's one completion event and
// takes its Copy from the copier's slab, so copies average far under one
// allocation each.
func TestCopierSteadyStateAllocs(t *testing.T) {
	const perRun = 100
	e := simclock.NewEngine()
	c := MustNewCopier(e, 1e9)
	done := 0
	onDone := func(*Copy) { done++ }
	run := func() {
		for i := 0; i < perRun; i++ {
			c.Submit(1e6, "ckpt", onDone)
		}
		e.RunAll()
	}
	run()
	run()
	perCopy := testing.AllocsPerRun(50, run) / perRun
	if perCopy > 0.1 {
		t.Fatalf("a warm copy allocates %v times, want ≤ 0.1", perCopy)
	}
	if done != perRun*53 {
		t.Fatalf("%d copies completed, want %d", done, perRun*53)
	}
}
