// Package profile implements GEMINI's online profiling (§5.4): during the
// first several training iterations (20 in the paper), it timestamps
// every communication operation, derives the network idle timespans
// within an iteration, and averages them across iterations. The profile
// feeds Algorithm 2's checkpoint partitioning.
package profile

import (
	"fmt"
	"math"
	"sort"

	"gemini/internal/simclock"
)

// Op is one recorded communication operation within an iteration,
// expressed relative to the iteration start.
type Op struct {
	Start, End simclock.Duration
	Label      string
}

// IterationTrace is the communication timeline of a single iteration.
type IterationTrace struct {
	Duration simclock.Duration
	Ops      []Op
}

// IdleSpans returns the gaps in the iteration where the network is idle:
// the complement of the union of op intervals within [0, Duration].
// Zero-length gaps are dropped.
func (it *IterationTrace) IdleSpans() []Span {
	spans, _ := idleSpans(nil, it.intervals(), it.Duration)
	return spans
}

// BusyTime returns the total time the network is occupied in the trace.
func (it *IterationTrace) BusyTime() simclock.Duration {
	_, busy := idleSpans(nil, it.intervals(), it.Duration)
	return busy
}

// intervals returns the trace's op intervals in start order.
func (it *IterationTrace) intervals() []interval {
	ivs := make([]interval, len(it.Ops))
	for i, op := range it.Ops {
		ivs[i] = interval{op.Start, op.End}
	}
	sortByStart(ivs)
	return ivs
}

// interval is an op without its label: all the idle-span pass reads.
type interval struct{ start, end simclock.Duration }

func sortByStart(ivs []interval) {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
}

// idleSpans is the package's one idle-span derivation: a single pass over
// intervals sorted by start that clamps each to [0, limit], drops empty
// ones, merges overlapping and touching ones, and appends the gaps
// between the merged intervals to dst. It also returns the busy time, the
// summed length of the merged intervals. The union of the intervals does
// not depend on how equal starts are ordered, so neither do the spans nor
// the busy time.
func idleSpans(dst []Span, ivs []interval, limit simclock.Duration) ([]Span, simclock.Duration) {
	var busy, lo, hi simclock.Duration // hi: end of the covered prefix
	open := false
	for _, iv := range ivs {
		s, e := iv.start, iv.end
		if e > limit {
			e = limit
		}
		if s < 0 {
			s = 0
		}
		if e <= s {
			continue
		}
		if open && s <= hi {
			if e > hi {
				hi = e
			}
			continue
		}
		if open {
			busy += hi - lo
		}
		if s > hi {
			dst = append(dst, Span{Offset: hi, Length: s - hi})
		}
		lo, hi, open = s, e, true
	}
	if open {
		busy += hi - lo
	}
	if limit > hi {
		dst = append(dst, Span{Offset: hi, Length: limit - hi})
	}
	return dst, busy
}

// Span is one network idle timespan within an iteration.
type Span struct {
	// Offset is where the span begins, relative to iteration start.
	Offset simclock.Duration
	// Length is the idle duration (the t_i of Algorithm 2).
	Length simclock.Duration
}

// Profile is the averaged result of online profiling.
type Profile struct {
	// Spans are the per-iteration idle timespans, averaged across the
	// profiled iterations, in time order.
	Spans []Span
	// IterationTime is the mean iteration duration.
	IterationTime simclock.Duration
	// Iterations is how many iterations were profiled.
	Iterations int
	// NormalizedStdDev is the largest coefficient of variation observed
	// across the per-span lengths — the <10% stability the paper reports.
	NormalizedStdDev float64
	// Discarded is how many recorded iterations were dropped as outliers
	// (span count differing from the modal shape). A large value means
	// the profile rests on fewer iterations than the window suggests.
	Discarded int
}

// TotalIdle returns the sum of idle span lengths per iteration.
func (p *Profile) TotalIdle() simclock.Duration {
	var total simclock.Duration
	for _, s := range p.Spans {
		total += s.Length
	}
	return total
}

// Recorder accumulates the profiling window. It keeps no per-iteration
// trace: EndIteration turns the iteration's ops into idle spans and folds
// them into running sums kept per span count (shape), so memory is one
// reused ops buffer plus the sums, whatever the window.
type Recorder struct {
	window   int
	recorded int
	shapes   []shape // in first-seen order; a stable timeline has one

	iterStart simclock.Time
	ops       []interval // the open iteration's ops, relative to iterStart
	unordered bool       // an op of the open iteration started before its predecessor
	spans     []Span     // EndIteration's idle-span scratch
	inIter    bool
}

// shape holds the running sums of every recorded iteration with one idle
// span count. Iterations are added in record order, so the modal shape's
// sums are exactly those a per-iteration loop over the kept traces would
// produce: iterations of other shapes never touch them.
type shape struct {
	spans   int // idle spans per iteration
	n       int // iterations of this shape
	iterSum simclock.Duration
	// offsets, lengths and sq sum each span's offset, length and squared
	// length, in seconds.
	offsets, lengths, sq []float64
}

func (sh *shape) add(dur simclock.Duration, spans []Span) {
	sh.n++
	sh.iterSum += dur
	for i, s := range spans {
		sh.offsets[i] += s.Offset.Seconds()
		sh.lengths[i] += s.Length.Seconds()
		sh.sq[i] += s.Length.Seconds() * s.Length.Seconds()
	}
}

// NewRecorder profiles up to window iterations; further iterations are
// ignored. The paper uses a 20-iteration window.
func NewRecorder(window int) (*Recorder, error) {
	if window <= 0 {
		return nil, fmt.Errorf("profile: window must be positive, got %d", window)
	}
	return &Recorder{window: window}, nil
}

// MustNewRecorder is NewRecorder for known-good windows.
func MustNewRecorder(window int) *Recorder {
	r, err := NewRecorder(window)
	if err != nil {
		panic(err)
	}
	return r
}

// Done reports whether the profiling window is full.
func (r *Recorder) Done() bool { return r.recorded >= r.window }

// Iterations returns how many complete iterations have been recorded.
func (r *Recorder) Iterations() int { return r.recorded }

// BeginIteration marks an iteration start at absolute time t.
func (r *Recorder) BeginIteration(t simclock.Time) {
	if r.inIter {
		panic("profile: BeginIteration without EndIteration")
	}
	r.inIter = true
	r.iterStart = t
	r.ops = r.ops[:0]
	r.unordered = false
}

// RecordOp logs a communication op by absolute start/end times. The label
// only names the op in the panic for a backwards interval.
func (r *Recorder) RecordOp(start, end simclock.Time, label string) {
	if !r.inIter {
		panic("profile: RecordOp outside an iteration")
	}
	if end < start {
		panic(fmt.Sprintf("profile: op %q ends %v before it starts %v", label, end, start))
	}
	iv := interval{start.Sub(r.iterStart), end.Sub(r.iterStart)}
	if n := len(r.ops); n > 0 && iv.start < r.ops[n-1].start {
		r.unordered = true
	}
	r.ops = append(r.ops, iv)
}

// EndIteration closes the current iteration at absolute time t and folds
// its idle spans into the running sums. Ops recorded out of start order
// (completion order, as ProfileFromExecution observes them) are sorted
// first; start-ordered ops take the single linear pass.
func (r *Recorder) EndIteration(t simclock.Time) {
	if !r.inIter {
		panic("profile: EndIteration without BeginIteration")
	}
	r.inIter = false
	if r.Done() {
		return
	}
	r.recorded++
	if r.unordered {
		sortByStart(r.ops)
	}
	dur := t.Sub(r.iterStart)
	r.spans, _ = idleSpans(r.spans[:0], r.ops, dur)
	r.shapeFor(len(r.spans)).add(dur, r.spans)
}

// shapeFor returns the sums for iterations with count idle spans,
// creating them on first sight.
func (r *Recorder) shapeFor(count int) *shape {
	for i := range r.shapes {
		if r.shapes[i].spans == count {
			return &r.shapes[i]
		}
	}
	r.shapes = append(r.shapes, shape{
		spans:   count,
		offsets: make([]float64, count),
		lengths: make([]float64, count),
		sq:      make([]float64, count),
	})
	return &r.shapes[len(r.shapes)-1]
}

// Build averages the recorded iterations into a Profile. It requires at
// least one complete iteration. Iterations are assumed to share the same
// communication shape (§5.4 observes the timeline is nearly constant);
// spans are matched by index, and iterations with a differing span count
// from the majority are discarded as outliers (on a tie, the larger span
// count wins).
func (r *Recorder) Build() (*Profile, error) {
	if r.recorded == 0 {
		return nil, fmt.Errorf("profile: no complete iterations recorded")
	}
	var m *shape
	for i := range r.shapes {
		sh := &r.shapes[i]
		if m == nil || sh.n > m.n || (sh.n == m.n && sh.spans > m.spans) {
			m = sh
		}
	}
	prof := &Profile{Iterations: m.n, Discarded: r.recorded - m.n}
	n := float64(m.n)
	prof.IterationTime = m.iterSum / simclock.Duration(n)
	if m.spans == 0 {
		return prof, nil
	}
	prof.Spans = make([]Span, m.spans)
	for i := range prof.Spans {
		mean := m.lengths[i] / n
		prof.Spans[i] = Span{
			Offset: simclock.Duration(m.offsets[i] / n),
			Length: simclock.Duration(mean),
		}
		if mean > 0 && n > 1 {
			variance := math.Max(0, m.sq[i]/n-mean*mean)
			if cv := math.Sqrt(variance) / mean; cv > prof.NormalizedStdDev {
				prof.NormalizedStdDev = cv
			}
		}
	}
	return prof, nil
}
