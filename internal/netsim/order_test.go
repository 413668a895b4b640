package netsim

import (
	"fmt"
	"strings"
	"testing"

	"gemini/internal/simclock"
)

// startupOrderScript drives the flow startup window through the paths
// that interact with the engine's (time, priority, seq) order and logs
// each flow callback and each probe event as it fires:
//
//   - same-instant StartFlows interleaved with user events aimed at the
//     end of their startup window (probes read which flows are active);
//   - a zero-α fabric sharing the engine with the first one.
func startupOrderScript() []string {
	e := simclock.NewEngine()
	f := MustNewFabric(e, 8, Config{EgressBytesPerSec: 100, Alpha: 1})
	var log []string
	flows := map[string]*Flow{}
	record := func(fl *Flow) {
		log = append(log, fmt.Sprintf("%v %s:%v", e.Now(), fl.Label, fl.State()))
	}
	start := func(src, dst int, label string) {
		flows[label] = f.StartFlow(src, dst, 100, label, record)
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
	start(0, 1, "a")
	start(2, 3, "b")
	e.At(1, probe("u1", "a", "b", "c", "d"))
	start(4, 5, "c")
	start(6, 7, "d")
	e.AtPriority(1, -1, probe("uneg", "a", "b", "c", "d"))
	e.At(1, probe("u2", "a", "b", "c", "d"))

	// A zero-α fabric on the same engine: windows end at the start
	// instant, after the user event already queued there, and before a
	// probe the second start's event schedules after it.
	f0 := MustNewFabric(e, 4, Config{EgressBytesPerSec: 100})
	e.AtPriority(50, -1, func() {
		flows["g1"] = f0.StartFlow(0, 1, 100, "g1", record)
		start(0, 1, "h1")
	})
	e.At(50, func() {
		flows["g3"] = f0.StartFlow(1, 2, 100, "g3", record)
		e.At(50, probe("u5", "g1", "g3"))
	})

	e.RunAll()
	log = append(log, fmt.Sprintf("end %v active=%d", e.Now(), f.ActiveFlows()))
	return log
}

// TestStartupWindowOrderExact pins the exact firing order of flow
// startup windows against user events. A flow's window ends where an
// After(α) event scheduled at StartFlow would fire, so any change to how
// the fabric schedules startup must reproduce this sequence.
func TestStartupWindowOrderExact(t *testing.T) {
	want := []string{
		"1.000s uneg [a=starting b=starting c=starting d=starting]",
		"1.000s u1 [a=active b=active c=starting d=starting]",
		"1.000s u2 [a=active b=active c=active d=active]",
		"2.000s a:done",
		"2.000s b:done",
		"2.000s c:done",
		"2.000s d:done",
		// g1 (0→1) and g3 (1→2) share no NIC direction, so each runs
		// alone at 100 B/s; h1 waits out its 1 s window first.
		"50.000s u5 [g1=active g3=active]",
		"51.000s g1:done",
		"51.000s g3:done",
		"52.000s h1:done",
		"end 52.000s active=0",
	}
	got := startupOrderScript()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("startup order:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
