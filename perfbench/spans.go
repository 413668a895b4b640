package main

// Wall-clock spans recorded from outside the program: the benchmark
// opens a span around each call it makes into a module's public
// functions, names it "<module>.<call>", and derives each layer's self
// time from the nesting. A nil *recorder is the untraced path; every
// method is a no-op on it.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"gemini/internal/simclock"
	"gemini/internal/trace"
)

type span struct {
	name       string
	start, end time.Time
	parent     int // index into recorder.spans; -1 for a root span
}

type recorder struct {
	spans []span
	open  []int // LIFO stack of begun, not yet ended spans
}

func newRecorder() *recorder { return &recorder{} }

// begin opens a span nested in the innermost open one.
func (r *recorder) begin(name string) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{name: name, start: time.Now(), parent: r.current()})
	r.open = append(r.open, len(r.spans)-1)
}

// end closes the innermost open span.
func (r *recorder) end() {
	if r == nil {
		return
	}
	i := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[i].end = time.Now()
}

// current returns the innermost open span, or -1.
func (r *recorder) current() int {
	if r == nil || len(r.open) == 0 {
		return -1
	}
	return r.open[len(r.open)-1]
}

// add records a span measured elsewhere (on a worker goroutine) under
// parent and returns its index.
func (r *recorder) add(name string, parent int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{name: name, start: start, end: end, parent: parent})
	return len(r.spans) - 1
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its children cover. Children may overlap one another (spans
// of concurrent workers), so the covered part is their union.
func (r *recorder) selfTimes() map[string]time.Duration {
	children := make([][]int, len(r.spans))
	for i, sp := range r.spans {
		if sp.parent >= 0 {
			children[sp.parent] = append(children[sp.parent], i)
		}
	}
	out := make(map[string]time.Duration)
	for i, sp := range r.spans {
		out[sp.name] += sp.end.Sub(sp.start) - r.covered(sp, children[i])
	}
	return out
}

// covered returns the length of the union of the child intervals,
// clipped to the parent.
func (r *recorder) covered(parent span, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([]span, 0, len(kids))
	for _, k := range kids {
		iv = append(iv, r.spans[k])
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a].start.Before(iv[b].start) })
	var total time.Duration
	var curStart, curEnd time.Time
	flush := func() {
		if curEnd.After(curStart) {
			total += curEnd.Sub(curStart)
		}
	}
	for i, c := range iv {
		s, e := c.start, c.end
		if s.Before(parent.start) {
			s = parent.start
		}
		if e.After(parent.end) {
			e = parent.end
		}
		if i == 0 || s.After(curEnd) {
			if i > 0 {
				flush()
			}
			curStart, curEnd = s, e
		} else if e.After(curEnd) {
			curEnd = e
		}
	}
	flush()
	return total
}

// durations returns the durations of every span with the given name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, sp := range r.spans {
		if sp.name == name {
			out = append(out, sp.end.Sub(sp.start).Seconds())
		}
	}
	return out
}

// writeTrace exports the recorders' spans as one Perfetto trace at
// path: one track per workload, every span tagged with the run id and
// its parent. The document must pass trace.Lint.
func writeTrace(path, runID, workload string, epoch time.Time, recs []*recorder) error {
	tr := trace.NewTracer(nil)
	tk := tr.Track("perfbench "+runID, workload)
	for ri, r := range recs {
		order := make([]int, len(r.spans))
		for i := range order {
			order[i] = i
		}
		// Start order keeps the exporter's lane layout linear.
		sort.SliceStable(order, func(a, b int) bool { return r.spans[order[a]].start.Before(r.spans[order[b]].start) })
		for _, i := range order {
			sp := r.spans[i]
			cat, _, _ := strings.Cut(sp.name, ".")
			tk.SpanArgs(cat, sp.name,
				simclock.Time(sp.start.Sub(epoch).Seconds()), simclock.Time(sp.end.Sub(epoch).Seconds()),
				fmt.Sprintf("run=%s span=%d.%d parent=%d.%d", runID, ri, i, ri, sp.parent))
		}
	}
	var buf bytes.Buffer
	if err := trace.WriteJSON(&buf, tr); err != nil {
		return err
	}
	issues, err := trace.Lint(buf.Bytes())
	if err != nil {
		return err
	}
	if len(issues) > 0 {
		return fmt.Errorf("trace lint: %d issues, first %v", len(issues), issues[0])
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
