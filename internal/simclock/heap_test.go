package simclock

import (
	"fmt"
	"math/rand"
	"testing"
)

// refEvent is the differential reference's view of one scheduled event.
type refEvent struct {
	at       Time
	priority int
	seq      uint64
	live     bool
}

func (a refEvent) before(b refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.priority != b.priority {
		return a.priority < b.priority
	}
	return a.seq < b.seq
}

// TestQueueMatchesSortedReference interleaves At, AtPriority, Cancel,
// Rearm and Step at random and requires every Step to fire exactly the
// event a linear scan picks as the (at, priority, seq) minimum, with
// Rearm drawing its sequence number the same way At does.
func TestQueueMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			e := NewEngine()
			var ids []EventID
			var ref []refEvent
			var seq uint64
			fired := -1
			// Coarse times and priorities make ties the common case.
			when := func() Time { return e.Now() + Time(rng.Intn(6)) }
			for step := 0; step < 5000; step++ {
				switch k := rng.Intn(100); {
				case k < 25:
					i, at, prio := len(ids), when(), 0
					if rng.Intn(2) == 0 {
						prio = rng.Intn(5) - 2
						ids = append(ids, e.AtPriority(at, prio, func() { fired = i }))
					} else {
						ids = append(ids, e.At(at, func() { fired = i }))
					}
					ref = append(ref, refEvent{at: at, priority: prio, seq: seq, live: true})
					seq++
				case k < 35 && len(ids) > 0:
					i := rng.Intn(len(ids))
					if got := ids[i].Cancel(); got != ref[i].live {
						t.Fatalf("step %d: Cancel(%d) = %v, reference pending %v", step, i, got, ref[i].live)
					}
					ref[i].live = false
				case k < 55 && len(ids) > 0:
					i, at := rng.Intn(len(ids)), when()
					e.Rearm(ids[i], at)
					ref[i] = refEvent{at: at, priority: ref[i].priority, seq: seq, live: true}
					seq++
				default:
					want := -1
					for i, r := range ref {
						if r.live && (want < 0 || r.before(ref[want])) {
							want = i
						}
					}
					fired = -1
					if ok := e.Step(); ok != (want >= 0) {
						t.Fatalf("step %d: Step() = %v, reference has event %d", step, ok, want)
					}
					if want < 0 {
						continue
					}
					if fired != want || e.Now() != ref[want].at {
						t.Fatalf("step %d: fired %d at %v, reference %d at %v", step, fired, e.Now(), want, ref[want].at)
					}
					ref[want].live = false
				}
				for i, r := range ref {
					if ids[i].Pending() != r.live {
						t.Fatalf("step %d: event %d Pending() = %v, reference %v", step, i, ids[i].Pending(), r.live)
					}
				}
			}
		})
	}
}

// TestEngineStatsExactCounts pins the self-counters on a hand-counted run.
func TestEngineStatsExactCounts(t *testing.T) {
	e := NewEngine()
	a := e.At(1, func() {})
	e.At(2, func() {})
	c := e.At(3, func() {})
	e.At(4, func() {}) // queue peaks at 4
	a.Cancel()
	c.Cancel()
	e.Rearm(c, 5) // revived in place: no new queue slot
	e.RunAll()    // fires 2, 4, 5; discards a
	tk := NewTicker(e, 1, func(Time) {})
	e.Run(e.Now() + 3) // three ticks
	tk.Stop()
	e.RunAll() // discards the stopped ticker's event
	want := EngineStats{Fired: 6, PeakQueue: 4, CanceledDiscarded: 2}
	if got := e.Stats(); got != want {
		t.Fatalf("Stats() = %+v, want %+v", got, want)
	}
}
