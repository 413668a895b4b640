package profile

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"gemini/internal/simclock"
)

// oracleRecorder is the copy-everything profiler the streaming Recorder
// replaced: it keeps a full copy of every iteration's ops, then sorts,
// merges and averages them all in build. It is the reference the
// differential test holds the Recorder to, bit for bit.
type oracleRecorder struct {
	window int
	traces []IterationTrace
}

func (o *oracleRecorder) record(dur simclock.Duration, ops []Op) {
	if len(o.traces) >= o.window {
		return
	}
	o.traces = append(o.traces, IterationTrace{Duration: dur, Ops: append([]Op(nil), ops...)})
}

type oracleInterval struct{ start, end simclock.Duration }

func oracleMergeOps(ops []Op, limit simclock.Duration) []oracleInterval {
	ivs := make([]oracleInterval, 0, len(ops))
	for _, op := range ops {
		s, e := op.Start, op.End
		if e > limit {
			e = limit
		}
		if s < 0 {
			s = 0
		}
		if e > s {
			ivs = append(ivs, oracleInterval{s, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var merged []oracleInterval
	for _, iv := range ivs {
		if n := len(merged); n > 0 && iv.start <= merged[n-1].end {
			if iv.end > merged[n-1].end {
				merged[n-1].end = iv.end
			}
			continue
		}
		merged = append(merged, iv)
	}
	return merged
}

func oracleIdleSpans(it IterationTrace) []Span {
	var spans []Span
	cursor := simclock.Duration(0)
	for _, iv := range oracleMergeOps(it.Ops, it.Duration) {
		if iv.start > cursor {
			spans = append(spans, Span{Offset: cursor, Length: iv.start - cursor})
		}
		if iv.end > cursor {
			cursor = iv.end
		}
	}
	if it.Duration > cursor {
		spans = append(spans, Span{Offset: cursor, Length: it.Duration - cursor})
	}
	return spans
}

func oracleBusyTime(it IterationTrace) simclock.Duration {
	var busy simclock.Duration
	for _, iv := range oracleMergeOps(it.Ops, it.Duration) {
		busy += iv.end - iv.start
	}
	return busy
}

func (o *oracleRecorder) build() (*Profile, error) {
	if len(o.traces) == 0 {
		return nil, fmt.Errorf("profile: no complete iterations recorded")
	}
	spans := make([][]Span, len(o.traces))
	for i := range o.traces {
		spans[i] = oracleIdleSpans(o.traces[i])
	}
	counts := make(map[int]int)
	for i := range spans {
		counts[len(spans[i])]++
	}
	modal, best := 0, 0
	for c, n := range counts {
		if n > best || (n == best && c > modal) {
			modal, best = c, n
		}
	}
	used := 0
	for i := range spans {
		if len(spans[i]) == modal {
			used++
		}
	}
	prof := &Profile{Iterations: used, Discarded: len(o.traces) - used}
	if modal == 0 {
		var iterSum simclock.Duration
		for i, tr := range o.traces {
			if len(spans[i]) == modal {
				iterSum += tr.Duration
			}
		}
		prof.IterationTime = iterSum / simclock.Duration(used)
		return prof, nil
	}
	offsets := make([]float64, modal)
	lengths := make([]float64, modal)
	sq := make([]float64, modal)
	var iterSum simclock.Duration
	for ti, tr := range o.traces {
		if len(spans[ti]) != modal {
			continue
		}
		iterSum += tr.Duration
		for i, s := range spans[ti] {
			offsets[i] += s.Offset.Seconds()
			lengths[i] += s.Length.Seconds()
			sq[i] += s.Length.Seconds() * s.Length.Seconds()
		}
	}
	n := float64(used)
	prof.IterationTime = iterSum / simclock.Duration(n)
	for i := 0; i < modal; i++ {
		mean := lengths[i] / n
		prof.Spans = append(prof.Spans, Span{
			Offset: simclock.Duration(offsets[i] / n),
			Length: simclock.Duration(mean),
		})
		if mean > 0 && n > 1 {
			variance := math.Max(0, sq[i]/n-mean*mean)
			if cv := math.Sqrt(variance) / mean; cv > prof.NormalizedStdDev {
				prof.NormalizedStdDev = cv
			}
		}
	}
	return prof, nil
}

// randomIteration draws one iteration of ops from a small set of layouts:
// a start-ordered base shape of touching and overlapping ops, perturbed
// per iteration by jitter, and optionally shuffled, given zero-length,
// negative or past-duration ops, or made all-busy. Shapes vary with the
// number of base ops, so a window mixes several span counts.
func randomIteration(rng *rand.Rand, dur simclock.Duration) []Op {
	var ops []Op
	if rng.Intn(12) == 0 { // all busy
		ops = append(ops, Op{Start: -1, End: dur + 1})
	}
	base := 1 + rng.Intn(4)
	slot := dur / simclock.Duration(base+1)
	for k := 0; k < base; k++ {
		s := simclock.Duration(k)*slot + simclock.Duration(rng.Float64())*slot/4
		e := s + slot/2 + simclock.Duration(rng.Float64())*slot/3
		ops = append(ops, Op{Start: s, End: e})
		switch rng.Intn(6) {
		case 0: // overlapping
			ops = append(ops, Op{Start: s + (e-s)/3, End: e + slot/8})
		case 1: // touching
			ops = append(ops, Op{Start: e, End: e + slot/10})
		case 2: // zero-length
			ops = append(ops, Op{Start: e + slot/20, End: e + slot/20})
		}
	}
	if rng.Intn(5) == 0 { // starts before the iteration
		ops = append(ops, Op{Start: -slot / 2, End: simclock.Duration(rng.Float64()) * slot / 4})
	}
	if rng.Intn(5) == 0 { // runs past the iteration end
		ops = append(ops, Op{Start: dur - slot/5, End: dur + slot})
	}
	if rng.Intn(5) == 0 { // entirely past the iteration end
		ops = append(ops, Op{Start: dur + 1, End: dur + 2})
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Start < ops[j].Start })
	if rng.Intn(3) == 0 { // completion order, not start order
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	}
	return ops
}

func profilesIdentical(a, b *Profile) bool {
	if a.IterationTime != b.IterationTime || a.Iterations != b.Iterations ||
		a.NormalizedStdDev != b.NormalizedStdDev || a.Discarded != b.Discarded ||
		len(a.Spans) != len(b.Spans) || (a.Spans == nil) != (b.Spans == nil) {
		return false
	}
	for i := range a.Spans {
		if a.Spans[i] != b.Spans[i] {
			return false
		}
	}
	return true
}

// TestRecorderMatchesCopyingOracle drives the streaming Recorder and the
// copy + sort + build oracle with the same seeded random iterations —
// unsorted, overlapping, touching, zero-length, negative and past-duration
// ops over several span-count shapes, including modal ties and all-busy
// iterations — and requires bit-identical profiles, and identical idle
// spans and busy time per iteration.
func TestRecorderMatchesCopyingOracle(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		window := 1 + rng.Intn(24)
		r := MustNewRecorder(window)
		o := &oracleRecorder{window: window}
		var at simclock.Time
		for it := 0; it < window+rng.Intn(4); it++ { // some past the window
			dur := simclock.Duration(50 + 50*rng.Float64())
			ops := randomIteration(rng, dur)
			tr := IterationTrace{Duration: dur, Ops: ops}
			got, want := tr.IdleSpans(), oracleIdleSpans(tr)
			if len(got) != len(want) {
				t.Fatalf("seed %d iter %d: IdleSpans %v, oracle %v", seed, it, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d iter %d: span %d = %v, oracle %v", seed, it, i, got[i], want[i])
				}
			}
			if b, wb := tr.BusyTime(), oracleBusyTime(tr); b != wb {
				t.Fatalf("seed %d iter %d: BusyTime %v, oracle %v", seed, it, b, wb)
			}

			r.BeginIteration(at)
			for _, op := range ops {
				r.RecordOp(at.Add(op.Start), at.Add(op.End), "op")
			}
			end := at.Add(dur)
			r.EndIteration(end)
			// The oracle sees exactly what the recorder stored: offsets
			// re-derived from the absolute times.
			rel := make([]Op, len(ops))
			for i, op := range ops {
				rel[i] = Op{Start: at.Add(op.Start).Sub(at), End: at.Add(op.End).Sub(at)}
			}
			o.record(end.Sub(at), rel)
			at = end.Add(simclock.Duration(rng.Float64()))
		}
		got, err := r.Build()
		if err != nil {
			t.Fatal(err)
		}
		want, err := o.build()
		if err != nil {
			t.Fatal(err)
		}
		if !profilesIdentical(got, want) {
			t.Fatalf("seed %d: streaming profile %+v\noracle profile    %+v", seed, got, want)
		}
	}
}

// TestRecorderModalTieMatchesOracle pins the tie rule on a window whose
// shapes tie: two iterations with two spans, two with one, and two
// all-busy ones. The larger span count wins in both implementations.
func TestRecorderModalTieMatchesOracle(t *testing.T) {
	iters := []struct {
		dur simclock.Duration
		ops []Op
	}{
		{10, []Op{{Start: 2, End: 4}}},                    // 2 spans
		{10, []Op{{Start: 0, End: 10}}},                   // all busy
		{10, []Op{{Start: 0, End: 3}}},                    // 1 span
		{11, []Op{{Start: 3, End: 5}}},                    // 2 spans
		{12, []Op{{Start: -2, End: 20}}},                  // all busy
		{9, []Op{{Start: 0, End: 1}, {Start: 1, End: 2}}}, // 1 span, touching
	}
	r := MustNewRecorder(len(iters))
	o := &oracleRecorder{window: len(iters)}
	var at simclock.Time
	for _, it := range iters {
		r.BeginIteration(at)
		for _, op := range it.ops {
			r.RecordOp(at.Add(op.Start), at.Add(op.End), "op")
		}
		r.EndIteration(at.Add(it.dur))
		o.record(it.dur, it.ops)
		at = at.Add(it.dur)
	}
	got, _ := r.Build()
	want, _ := o.build()
	if !profilesIdentical(got, want) {
		t.Fatalf("streaming profile %+v, oracle %+v", got, want)
	}
	if len(got.Spans) != 2 || got.Iterations != 2 || got.Discarded != 4 {
		t.Fatalf("tie picked %d spans over %d iterations (%d discarded), want 2 over 2 (4)",
			len(got.Spans), got.Iterations, got.Discarded)
	}
}
