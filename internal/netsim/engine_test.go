package netsim

import (
	"fmt"
	"strings"
	"testing"

	"gemini/internal/simclock"
)

// runContendedFabric drives a fabric through simultaneous completions and
// two mid-run re-rates of one node, recording every callback. The engine
// promises the exact same sequence on every run: completions fire in
// (ETA, flow-sequence) order, never in Go map-iteration order.
func runContendedFabric() []string {
	e := simclock.NewEngine()
	f := MustNewFabric(e, 8, Config{EgressBytesPerSec: 1000, Alpha: 0.01})
	var order []string
	for i := 0; i < 8; i++ {
		i := i
		record := func(fl *Flow) {
			order = append(order, fmt.Sprintf("%s:%v@%v", fl.Label, fl.State(), e.Now()))
		}
		f.StartFlow(i, (i+1)%8, 5000, fmt.Sprintf("ring%d", i), record)
		f.StartFlow(i, (i+4)%8, 5000, fmt.Sprintf("cross%d", i), record)
	}
	e.At(2, func() { f.SetNodeCapacity(3, 250, 250) })
	e.At(4, func() { f.SetNodeCapacity(3, 1000, 1000) })
	e.RunAll()
	return order
}

func TestCompletionOrderDeterministic(t *testing.T) {
	first := runContendedFabric()
	if len(first) != 16 {
		t.Fatalf("got %d callbacks, want 16 (every flow done)", len(first))
	}
	for _, cb := range first {
		if !strings.Contains(cb, ":done@") {
			t.Fatalf("callback %q: every flow should complete", cb)
		}
	}
	for run := 0; run < 3; run++ {
		again := runContendedFabric()
		if len(again) != len(first) {
			t.Fatalf("run %d: %d callbacks, want %d", run, len(again), len(first))
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("run %d: callback %d = %q, want %q", run, i, again[i], first[i])
			}
		}
	}
}

func TestSameInstantCompletionsFireInStartOrder(t *testing.T) {
	// Four equal flows from one source saturate its egress together and
	// drain at the same instant; callbacks must fire in start order.
	e, f := newTestFabric(t, 5, Config{EgressBytesPerSec: 100})
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		f.StartFlow(0, i+1, 1000, "eq", func(*Flow) { order = append(order, i) })
	}
	e.RunAll()
	if len(order) != 4 {
		t.Fatalf("got %d completions, want 4", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("completion order %v, want [0 1 2 3]", order)
		}
	}
}

func TestFabricStatsCounters(t *testing.T) {
	e, f := newTestFabric(t, 4, Config{EgressBytesPerSec: 100})
	f.StartFlow(0, 1, 1000, "a", nil)
	f.StartFlow(0, 2, 1000, "b", nil)
	f.StartFlow(2, 3, 1000, "c", nil)
	e.RunAll()
	s := f.Stats()
	if s.FlowsStarted != 3 || s.FlowsFinished != 3 {
		t.Fatalf("flow counts %d/%d, want 3/3", s.FlowsStarted, s.FlowsFinished)
	}
	if s.PeakConcurrentFlows != 3 {
		t.Fatalf("peak flows %d, want 3", s.PeakConcurrentFlows)
	}
	if s.Recomputes == 0 || s.Waterfills == 0 || s.WaterfillRounds < s.Waterfills {
		t.Fatalf("recompute counters not advancing: %+v", s)
	}
	if hr := s.DirtyHitRate(); hr < 0 || hr > 1 {
		t.Fatalf("dirty hit rate %v out of [0,1]", hr)
	}
	cs := s.Counters()
	if v, ok := cs.Get("flows_started"); !ok || v != 3 {
		t.Fatalf("counter flows_started = %v/%v, want 3", v, ok)
	}
	if _, ok := cs.Get("dirty_hit_rate"); !ok {
		t.Fatal("dirty_hit_rate counter missing")
	}
}
