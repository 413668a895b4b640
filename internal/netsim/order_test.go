package netsim

import (
	"fmt"
	"strings"
	"testing"

	"gemini/internal/simclock"
)

// startupOrderScript drives the flow startup window through every path
// that interacts with the engine's (time, priority, seq) order and logs
// each flow callback and each probe event as it fires:
//
//   - same-instant StartFlows interleaved with user events aimed at the
//     end of their startup window (probes read which flows are active);
//   - startup-window failures (a node down, a partition) whose callback
//     schedules a priority-0 and a negative-priority event at now and
//     cancels a later flow still in its window;
//   - Flow.Cancel during startup, including every flow of one instant;
//   - engine.Stop inside a failure callback, with the run resumed;
//   - a zero-α fabric sharing the engine with the first one.
func startupOrderScript() []string {
	e := simclock.NewEngine()
	f := MustNewFabric(e, 8, Config{EgressBytesPerSec: 100, Alpha: 1})
	var log []string
	flows := map[string]*Flow{}
	record := func(fl *Flow) {
		log = append(log, fmt.Sprintf("%v %s:%v", e.Now(), fl.Label, fl.State()))
	}
	start := func(src, dst int, label string, cb func(*Flow)) {
		if cb == nil {
			cb = record
		}
		flows[label] = f.StartFlow(src, dst, 100, label, cb)
	}
	probe := func(name string, labels ...string) func() {
		return func() {
			states := make([]string, len(labels))
			for i, l := range labels {
				states[i] = l + "=" + flows[l].State().String()
			}
			log = append(log, fmt.Sprintf("%v %s [%s]", e.Now(), name, strings.Join(states, " ")))
		}
	}

	// Same-instant starts interleaved with events at the window's end.
	start(0, 1, "a", nil)
	start(2, 3, "b", nil)
	e.At(1, probe("u1", "a", "b", "c", "d"))
	start(4, 5, "c", nil)
	start(6, 7, "d", nil)
	e.AtPriority(1, -1, probe("uneg", "a", "b", "c", "d"))
	e.At(1, probe("u2", "a", "b", "c", "d"))

	// Startup-window failures: q's endpoint goes down and s is
	// partitioned away inside the window; q's callback schedules events
	// at now and cancels r.
	e.At(10, func() {
		start(0, 1, "p", nil)
		start(0, 2, "q", func(fl *Flow) {
			record(fl)
			e.At(e.Now(), probe("q-p0", "r", "s", "t"))
			e.AtPriority(e.Now(), -1, probe("q-neg", "r", "s", "t"))
			flows["r"].Cancel()
		})
		start(3, 4, "r", nil)
		start(5, 6, "s", nil)
		start(6, 7, "t", nil)
		e.At(11, probe("u3", "p", "q", "r", "s", "t"))
	})
	e.At(10.5, func() {
		f.SetNodeUp(2, false)
		f.SetPartition([]int{5})
	})
	e.At(15, func() {
		f.SetNodeUp(2, true)
		f.ClearPartition()
	})

	// Cancel during startup: one flow of a group, then all of one.
	e.At(20, func() {
		start(0, 1, "x", nil)
		start(1, 2, "y", nil)
		start(3, 4, "z", nil)
		e.At(21, probe("u4", "x", "y", "z"))
	})
	e.At(20.5, func() { flows["y"].Cancel() })

	// Stop inside a failure callback.
	e.At(30, func() {
		start(0, 1, "m1", nil)
		start(0, 2, "m2", func(fl *Flow) {
			record(fl)
			e.Stop()
		})
		start(3, 4, "m3", nil)
	})
	e.At(30.5, func() { f.SetNodeUp(2, false) })

	// Every flow of one instant canceled: nothing is left to fire.
	e.At(40, func() {
		start(5, 6, "v", nil)
		start(6, 7, "w", nil)
	})
	e.At(40.5, func() {
		flows["v"].Cancel()
		flows["w"].Cancel()
	})

	// A zero-α fabric on the same engine: windows end at the start
	// instant, flows of one instant are split by the other fabric's
	// start, a later event of the same instant adds to them, and a
	// failure callback starts a flow inside the window it fails in.
	f0 := MustNewFabric(e, 4, Config{EgressBytesPerSec: 100})
	e.AtPriority(50, -1, func() {
		flows["g1"] = f0.StartFlow(0, 1, 100, "g1", record)
		start(0, 1, "h1", nil)
		flows["g2"] = f0.StartFlow(2, 3, 100, "g2", func(fl *Flow) {
			record(fl)
			e.At(e.Now(), probe("g2-p0", "g3", "g5"))
			flows["g5"] = f0.StartFlow(0, 2, 100, "g5", record)
		})
	})
	e.At(50, func() {
		flows["g3"] = f0.StartFlow(1, 2, 100, "g3", record)
		f0.SetNodeUp(3, false)
		e.At(50, probe("u5", "g1", "g2", "g3"))
	})

	e.RunAll()
	probe("stopped", "m1", "m2", "m3")()
	e.RunAll()
	log = append(log, fmt.Sprintf("end %v active=%d", e.Now(), f.ActiveFlows()))
	return log
}

// TestStartupWindowOrderExact pins the exact firing order of flow
// startup windows against user events, failures, cancels and Stop. A
// flow's window ends where an After(α) event scheduled at StartFlow would
// fire, so any change to how the fabric schedules startup must reproduce
// this sequence.
func TestStartupWindowOrderExact(t *testing.T) {
	want := []string{
		"1.000s uneg [a=starting b=starting c=starting d=starting]",
		"1.000s u1 [a=active b=active c=starting d=starting]",
		"1.000s u2 [a=active b=active c=active d=active]",
		"2.000s a:done",
		"2.000s b:done",
		"2.000s c:done",
		"2.000s d:done",
		"11.000s q:failed",
		"11.000s r:canceled",
		"11.000s q-neg [r=canceled s=starting t=starting]",
		"11.000s s:failed",
		"11.000s u3 [p=active q=failed r=canceled s=failed t=active]",
		"11.000s q-p0 [r=canceled s=failed t=active]",
		"12.000s p:done",
		"12.000s t:done",
		"20.500s y:canceled",
		"21.000s u4 [x=active y=canceled z=active]",
		"22.000s x:done",
		"22.000s z:done",
		"31.000s m2:failed",
		"31.000s stopped [m1=active m2=failed m3=starting]",
		"32.000s m1:done",
		"32.000s m3:done",
		"40.500s v:canceled",
		"40.500s w:canceled",
		"50.000s g2:failed",
		"50.000s u5 [g1=active g2=failed g3=active]",
		"50.000s g2-p0 [g3=active g5=starting]",
		"52.000s g1:done",
		"52.000s g3:done",
		"52.000s g5:done",
		"52.000s h1:done",
		"end 52.000s active=0",
	}
	got := startupOrderScript()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("startup order:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// A startup window whose flows were all canceled leaves nothing to fire:
// the clock stops at the cancel, as it would with each flow's own
// startup event canceled.
func TestCanceledStartupWindowDoesNotAdvanceClock(t *testing.T) {
	e, f := newTestFabric(t, 3, Config{EgressBytesPerSec: 100, Alpha: 1})
	a := f.StartFlow(0, 1, 100, "a", nil)
	b := f.StartFlow(1, 2, 100, "b", nil)
	e.At(0.5, func() {
		a.Cancel()
		b.Cancel()
	})
	e.RunAll()
	if e.Now() != 0.5 {
		t.Fatalf("clock at %v after canceling every starting flow, want 0.5", e.Now())
	}
}
