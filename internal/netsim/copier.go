package netsim

import (
	"fmt"

	"gemini/internal/simclock"
	"gemini/internal/trace"
)

// Copier models a machine's GPU→CPU (device-to-host) copy channel. GEMINI's
// pipeline overlaps these copies with inter-machine flows (§5.2, Fig. 5d);
// the copy bandwidth on p4d instances is comparable to the network
// bandwidth (~400 Gbps), which is why unpipelined copies create bubbles
// nearly as long as the transfers themselves.
//
// Copies are served FIFO at the configured bandwidth, one at a time: a
// single DMA engine dedicated to checkpoint movement. Serving one copy at
// a time lets the channel keep a single completion event, rearmed for
// each copy, and Copy objects come from a per-copier slab.
type Copier struct {
	engine    *simclock.Engine
	bandwidth float64 // bytes/sec
	queue     []*Copy // pending copies are queue[head:]; backing array reused
	head      int
	copies    slab[Copy]
	cur       *Copy            // the copy in flight while busy
	done      simclock.EventID // cur's completion; rearmed per copy
	busy      bool
	busyTotal simclock.Duration
	busySince simclock.Time
	track     *trace.Track // nil = untraced
}

// Copy is one queued or in-flight GPU→CPU copy.
type Copy struct {
	Bytes  float64
	Label  string
	onDone func(*Copy)
	state  FlowState
}

// State returns the copy's lifecycle state (FlowStarting while queued,
// FlowActive while copying, FlowDone when complete).
func (c *Copy) State() FlowState { return c.state }

// NewCopier creates a copy channel with the given bandwidth in bytes/sec.
func NewCopier(engine *simclock.Engine, bandwidthBytesPerSec float64) (*Copier, error) {
	if bandwidthBytesPerSec <= 0 {
		return nil, fmt.Errorf("netsim: copier bandwidth must be positive, got %v", bandwidthBytesPerSec)
	}
	return &Copier{engine: engine, bandwidth: bandwidthBytesPerSec}, nil
}

// MustNewCopier is NewCopier for statically-known-good bandwidths.
func MustNewCopier(engine *simclock.Engine, bw float64) *Copier {
	c, err := NewCopier(engine, bw)
	if err != nil {
		panic(err)
	}
	return c
}

// Bandwidth returns the channel bandwidth in bytes/sec.
func (c *Copier) Bandwidth() float64 { return c.bandwidth }

// QueueLen returns the number of copies waiting or in flight.
func (c *Copier) QueueLen() int {
	n := len(c.queue) - c.head
	if c.busy {
		n++
	}
	return n
}

// Submit enqueues a copy of size bytes; onDone fires when it completes.
func (c *Copier) Submit(bytes float64, label string, onDone func(*Copy)) *Copy {
	if bytes < 0 {
		panic(fmt.Sprintf("netsim: invalid copy size %v", bytes))
	}
	cp := c.copies.alloc()
	*cp = Copy{Bytes: bytes, Label: label, onDone: onDone, state: FlowStarting}
	c.queue = append(c.queue, cp)
	c.kick()
	return cp
}

// CopyTime returns how long a copy of the given size takes in isolation.
func (c *Copier) CopyTime(bytes float64) simclock.Duration {
	return simclock.Duration(bytes / c.bandwidth)
}

// BusyTime returns the cumulative time the channel has spent copying.
func (c *Copier) BusyTime() simclock.Duration {
	total := c.busyTotal
	if c.busy {
		total += c.engine.Now().Sub(c.busySince)
	}
	return total
}

func (c *Copier) kick() {
	if c.busy || c.head == len(c.queue) {
		return
	}
	cp := c.queue[c.head]
	c.queue[c.head] = nil
	c.head++
	if c.head == len(c.queue) || c.head > cap(c.queue)/2 {
		// Slide the pending tail down once the queue empties or its
		// consumed prefix passes half the backing array, so a channel that
		// never goes idle still reuses the array: O(1) amortized, and the
		// array stays within about twice the peak backlog.
		n := copy(c.queue, c.queue[c.head:])
		clear(c.queue[n:])
		c.queue = c.queue[:n]
		c.head = 0
	}
	c.busy = true
	c.busySince = c.engine.Now()
	cp.state = FlowActive
	c.cur = cp
	at := c.busySince.Add(c.CopyTime(cp.Bytes))
	if c.done == (simclock.EventID{}) {
		c.done = c.engine.At(at, c.complete)
	} else {
		c.engine.Rearm(c.done, at)
	}
}

// complete finishes the copy in flight and starts the next one.
func (c *Copier) complete() {
	cp := c.cur
	c.cur = nil
	cp.state = FlowDone
	c.busy = false
	c.busyTotal += c.engine.Now().Sub(c.busySince)
	c.track.Span(trace.CatNetsim, cp.Label, c.busySince, c.engine.Now())
	if cp.onDone != nil {
		cb := cp.onDone
		cp.onDone = nil
		cb(cp)
	}
	c.kick()
}
