package netsim

import (
	"math"
	"testing"

	"gemini/internal/simclock"
)

func TestCopierServesFIFO(t *testing.T) {
	e := simclock.NewEngine()
	c := MustNewCopier(e, 100)
	var order []string
	var times []simclock.Time
	c.Submit(1000, "a", func(cp *Copy) { order = append(order, cp.Label); times = append(times, e.Now()) })
	c.Submit(500, "b", func(cp *Copy) { order = append(order, cp.Label); times = append(times, e.Now()) })
	if c.QueueLen() != 2 {
		t.Fatalf("queue length %d, want 2", c.QueueLen())
	}
	e.RunAll()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("completion order %v, want [a b]", order)
	}
	if math.Abs(float64(times[0])-10) > 1e-9 || math.Abs(float64(times[1])-15) > 1e-9 {
		t.Fatalf("completion times %v, want [10 15]", times)
	}
	if c.QueueLen() != 0 {
		t.Fatalf("queue length %d after drain, want 0", c.QueueLen())
	}
}

func TestCopierBusyTime(t *testing.T) {
	e := simclock.NewEngine()
	c := MustNewCopier(e, 100)
	c.Submit(1000, "a", nil)
	e.At(50, func() { c.Submit(2000, "b", nil) })
	e.RunAll()
	if bt := c.BusyTime(); math.Abs(bt.Seconds()-30) > 1e-9 {
		t.Fatalf("busy time %v, want 30s", bt)
	}
	if e.Now() != 70 {
		t.Fatalf("clock %v, want 70", e.Now())
	}
}

func TestCopierCopyTime(t *testing.T) {
	e := simclock.NewEngine()
	c := MustNewCopier(e, 50*gbps)
	want := 1e9 / (50 * gbps)
	if got := c.CopyTime(1e9).Seconds(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("CopyTime = %v, want %v", got, want)
	}
	if c.Bandwidth() != 50*gbps {
		t.Fatalf("Bandwidth = %v", c.Bandwidth())
	}
}

func TestCopierStateTransitions(t *testing.T) {
	e := simclock.NewEngine()
	c := MustNewCopier(e, 100)
	first := c.Submit(1000, "a", nil)
	second := c.Submit(1000, "b", nil)
	if first.State() != FlowActive {
		t.Fatalf("first copy state %v, want active", first.State())
	}
	if second.State() != FlowStarting {
		t.Fatalf("queued copy state %v, want starting", second.State())
	}
	e.RunAll()
	if first.State() != FlowDone || second.State() != FlowDone {
		t.Fatalf("final states %v, %v", first.State(), second.State())
	}
}

func TestCopierRejectsBadConfig(t *testing.T) {
	e := simclock.NewEngine()
	if _, err := NewCopier(e, 0); err == nil {
		t.Error("zero bandwidth accepted")
	}
	if _, err := NewCopier(e, -1); err == nil {
		t.Error("negative bandwidth accepted")
	}
	c := MustNewCopier(e, 1)
	defer func() {
		if recover() == nil {
			t.Error("negative copy size did not panic")
		}
	}()
	c.Submit(-5, "bad", nil)
}

// A channel that never goes idle must still reuse its queue: 10k copies
// with at most two pending keep the backing array at the peak backlog,
// not at the number of copies ever submitted.
func TestCopierQueueStaysBoundedWhileBusy(t *testing.T) {
	const total = 10000
	e := simclock.NewEngine()
	c := MustNewCopier(e, 100)
	submitted, completed := 0, 0
	var next func(*Copy)
	next = func(*Copy) {
		completed++
		if submitted < total {
			submitted++
			c.Submit(1, "c", next)
		}
	}
	for i := 0; i < 2; i++ {
		submitted++
		c.Submit(1, "c", next)
	}
	e.RunAll()
	if completed != total {
		t.Fatalf("%d copies completed, want %d", completed, total)
	}
	if cap(c.queue) > 8 {
		t.Fatalf("queue backing grew to %d slots with at most 2 pending, want ≤ 8", cap(c.queue))
	}
}
