package trace

import (
	"bytes"
	"strings"
	"testing"

	"gemini/internal/simclock"
)

func TestTracerNilIsDisabled(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer claims enabled")
	}
	tk := tr.Track("p", "t")
	if tk != nil {
		t.Fatal("nil tracer returned a live track")
	}
	if tk.Enabled() {
		t.Fatal("nil track claims enabled")
	}
	// Every emission must be a safe no-op.
	tk.Begin(CatAgent, "x")
	tk.BeginArgs(CatAgent, "x", "a=1")
	tk.End()
	tk.Span(CatNetsim, "flow", 1, 2)
	tk.SpanArgs(CatNetsim, "flow", 1, 2, "a=1")
	tk.Instant(CatChaos, "crash")
	tk.InstantArgs(CatChaos, "crash", "rank=3")
	tk.Sample("active", 4)
	if tk.Spans() != nil || tk.Instants() != nil || tk.Samples() != nil || tk.OpenSpans() != 0 {
		t.Fatal("nil track recorded something")
	}
	if tr.Tracks() != nil {
		t.Fatal("nil tracer has tracks")
	}
	tr.SetNow(func() simclock.Time { return 1 }) // must not panic
}

func TestSpanNestingLIFO(t *testing.T) {
	now := simclock.Time(0)
	tr := NewTracer(func() simclock.Time { return now })
	tk := tr.Track("machine-0", "agent")
	tk.Begin(CatAgent, "outer")
	now = 1
	tk.BeginArgs(CatAgent, "inner", "k=v")
	now = 2
	tk.End() // closes inner
	now = 5
	tk.End() // closes outer
	spans := tk.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	inner, outer := spans[0], spans[1]
	if inner.Name != "inner" || inner.Start != 1 || inner.End != 2 || inner.Args != "k=v" {
		t.Fatalf("inner = %+v", inner)
	}
	if outer.Name != "outer" || outer.Start != 0 || outer.End != 5 {
		t.Fatalf("outer = %+v", outer)
	}
	if tk.OpenSpans() != 0 {
		t.Fatalf("OpenSpans = %d after balanced End", tk.OpenSpans())
	}
}

func TestEndWithoutBeginPanics(t *testing.T) {
	tr := NewTracer(nil)
	tk := tr.Track("p", "t")
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("unbalanced End did not panic")
		}
	}()
	tk.End()
}

func TestTrackRegistryDeduplicates(t *testing.T) {
	tr := NewTracer(nil)
	a := tr.Track("m0", "nic")
	b := tr.Track("m1", "nic")
	c := tr.Track("m0", "nic")
	if a != c {
		t.Fatal("same (process, thread) returned distinct tracks")
	}
	if a == b {
		t.Fatal("distinct processes shared a track")
	}
	tracks := tr.Tracks()
	if len(tracks) != 2 || tracks[0] != a || tracks[1] != b {
		t.Fatalf("Tracks() = %v, want creation order [a b]", tracks)
	}
}

func TestSetNowInstallsClockLate(t *testing.T) {
	tr := NewTracer(nil)
	tk := tr.Track("p", "t")
	tk.Instant(CatKVStore, "before")
	now := simclock.Time(42)
	tr.SetNow(func() simclock.Time { return now })
	tk.Instant(CatKVStore, "after")
	ins := tk.Instants()
	if ins[0].At != 0 || ins[1].At != 42 {
		t.Fatalf("instants = %+v", ins)
	}
}

func TestWriteJSONLaneLayout(t *testing.T) {
	tr := NewTracer(nil)
	nic := tr.Track("machine-0", "nic")
	// Two overlapping flows plus one that fits back on lane 0.
	nic.Span(CatNetsim, "flowA", 0, 10)
	nic.Span(CatNetsim, "flowB", 5, 12)
	nic.Span(CatNetsim, "flowC", 10, 15)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, tr); err != nil {
		t.Fatal(err)
	}
	st, err := StatsFromJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != 3 || st.Categories[CatNetsim] != 3 {
		t.Fatalf("stats = %+v", st)
	}
	out := buf.String()
	// Overlap forces a second lane, named after the base thread.
	if !strings.Contains(out, "nic·2") {
		t.Fatalf("no second lane in output:\n%s", out)
	}
	if strings.Contains(out, "nic·3") {
		t.Fatalf("flowC should reuse lane 0, not open a third lane:\n%s", out)
	}
}

func TestWriteJSONMergesTracersAndClosesOpenSpans(t *testing.T) {
	now := simclock.Time(0)
	a := NewTracer(func() simclock.Time { return now })
	a.Track("cluster", "iteration").Begin(CatTraining, "iter0")
	now = 7 // export-time clock: the open span closes here

	b := NewTracer(nil)
	b.Track("control-plane", "root").Instant(CatKVStore, "elected")

	var buf bytes.Buffer
	if err := WriteJSON(&buf, a, nil, b); err != nil {
		t.Fatal(err)
	}
	st, err := StatsFromJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != 2 {
		t.Fatalf("events = %d, want 2", st.Events)
	}
	wantProcs := []string{"cluster", "control-plane"}
	if len(st.Processes) != 2 || st.Processes[0] != wantProcs[0] || st.Processes[1] != wantProcs[1] {
		t.Fatalf("processes = %v, want %v", st.Processes, wantProcs)
	}
	if !strings.Contains(buf.String(), "open=true") {
		t.Fatal("open span not tagged open=true at export")
	}
	if !strings.Contains(buf.String(), `"dur":7000000`) {
		t.Fatalf("open span not closed at now=7s:\n%s", buf.String())
	}
}

func TestWriteJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	st, err := StatsFromJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != 0 {
		t.Fatalf("events = %d, want 0", st.Events)
	}
}

func TestStatsFromJSONRejectsGarbage(t *testing.T) {
	if _, err := StatsFromJSON([]byte("{not json")); err == nil {
		t.Fatal("garbage parsed")
	}
}

func TestSamplesExportAsCounters(t *testing.T) {
	now := simclock.Time(3)
	tr := NewTracer(func() simclock.Time { return now })
	tk := tr.Track("cluster", "stats")
	tk.Sample("active-flows", 12)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, tr); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"ph":"C"`) || !strings.Contains(out, `"value":12`) {
		t.Fatalf("counter sample missing:\n%s", out)
	}
}

func TestLogUncappedUnchanged(t *testing.T) {
	l := NewLog(nil)
	for i := 0; i < 100; i++ {
		l.Add("s", "tick", "n=%d", i)
	}
	if l.Len() != 100 {
		t.Fatalf("append-only log dropped events: Len=%d, want 100", l.Len())
	}
	if evs := l.Events(); evs[0].Detail != "n=0" || evs[99].Detail != "n=99" {
		t.Fatalf("Events out of order: first %+v, last %+v", evs[0], evs[99])
	}
}
