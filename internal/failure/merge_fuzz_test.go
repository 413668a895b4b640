package failure_test

import (
	"encoding/binary"
	"math"
	"os"
	"sort"
	"testing"

	"gemini/internal/cluster"
	"gemini/internal/failure"
	"gemini/internal/scenario"
	"gemini/internal/simclock"
)

// mergeOracle is Merge before the exact-size concatenation and
// slices.SortFunc: append into a growing slice, sort.Slice, collapse.
// Kept as the reference.
func mergeOracle(schedules ...failure.Schedule) failure.Schedule {
	var out failure.Schedule
	for _, s := range schedules {
		out = append(out, s...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].Kind < out[j].Kind
	})
	dedup := out[:0]
	for _, ev := range out {
		if n := len(dedup); n > 0 && dedup[n-1].At == ev.At && dedup[n-1].Rank == ev.Rank {
			if ev.Kind == cluster.HardwareFailed {
				dedup[n-1].Kind = cluster.HardwareFailed
			}
			continue
		}
		dedup = append(dedup, ev)
	}
	return dedup
}

// A schedule travels through the fuzzer as 11 bytes per event: the
// time's float64 bits, a uint16 rank and a kind byte (low bit set for
// hardware), all little-endian.
const eventBytes = 11

func encodeSchedule(s failure.Schedule) []byte {
	b := make([]byte, 0, len(s)*eventBytes)
	for _, ev := range s {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(float64(ev.At)))
		b = binary.LittleEndian.AppendUint16(b, uint16(ev.Rank))
		kind := byte(0)
		if ev.Kind == cluster.HardwareFailed {
			kind = 1
		}
		b = append(b, kind)
	}
	return b
}

// decodeSchedule inverts encodeSchedule. It drops NaN times, which have
// no place in a time order, and folds -0 into 0 — the two compare equal
// but differ in bits, and which of them survives a collapse would then
// depend on the sort algorithm.
func decodeSchedule(b []byte) failure.Schedule {
	var s failure.Schedule
	for ; len(b) >= eventBytes; b = b[eventBytes:] {
		at := math.Float64frombits(binary.LittleEndian.Uint64(b))
		if math.IsNaN(at) {
			continue
		}
		if at == 0 {
			at = 0
		}
		ev := failure.Event{At: simclock.Time(at), Rank: int(binary.LittleEndian.Uint16(b[8:])), Kind: cluster.SoftwareFailed}
		if b[10]&1 == 1 {
			ev.Kind = cluster.HardwareFailed
		}
		s = append(s, ev)
	}
	return s
}

func sameEvents(a, b failure.Schedule) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzMerge holds Merge to the sort.Slice oracle and to its contract:
// strictly (time, rank)-ordered output, one event per (time, rank) with
// hardware winning, and a result that depends on neither the argument
// order nor the order within an input. AppendMerge must leave dst's
// contents alone and append exactly Merge's result.
func FuzzMerge(f *testing.F) {
	// The seed corpus is the merge every chaos-10k campaign variation
	// makes: variation 0's background draw against the compiled chaos
	// crash schedule (a 64-rank region outage at one instant and a
	// correlated crash), plus the draw against itself re-kinded, which
	// collapses every event.
	data, err := os.ReadFile("../../examples/scenarios/chaos-10k.yaml")
	if err != nil {
		f.Fatal(err)
	}
	sc, err := scenario.Parse(data)
	if err != nil {
		f.Fatal(err)
	}
	c, err := sc.Compile()
	if err != nil {
		f.Fatal(err)
	}
	base, err := c.Model.Generate(sc.Job.Machines, sc.Horizon, sc.Seed)
	if err != nil {
		f.Fatal(err)
	}
	rekinded := append(failure.Schedule(nil), base...)
	for i := range rekinded {
		rekinded[i].Kind = cluster.HardwareFailed + cluster.SoftwareFailed - rekinded[i].Kind
	}
	f.Add(encodeSchedule(base), encodeSchedule(c.ChaosFailures))
	f.Add(encodeSchedule(base), encodeSchedule(rekinded))
	f.Add(encodeSchedule(c.ChaosFailures), encodeSchedule(c.ChaosFailures))
	f.Add([]byte{}, []byte{})

	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		a, b := decodeSchedule(ab), decodeSchedule(bb)
		got := failure.Merge(a, b)
		if want := mergeOracle(a, b); !sameEvents(got, want) {
			t.Fatalf("Merge = %v, oracle %v", got, want)
		}
		for i := 1; i < len(got); i++ {
			p, q := got[i-1], got[i]
			if q.At < p.At || (q.At == p.At && q.Rank <= p.Rank) {
				t.Fatalf("output not strictly (time, rank) ordered at %d: %v then %v", i, p, q)
			}
		}
		hw := make(map[failure.Event]bool) // keyed by (At, Rank), Kind zeroed
		for _, in := range [...]failure.Schedule{a, b} {
			for _, ev := range in {
				key := failure.Event{At: ev.At, Rank: ev.Rank}
				hw[key] = hw[key] || ev.Kind == cluster.HardwareFailed
			}
		}
		if len(got) != len(hw) {
			t.Fatalf("%d output events for %d distinct (time, rank) pairs", len(got), len(hw))
		}
		for _, ev := range got {
			if want := hw[failure.Event{At: ev.At, Rank: ev.Rank}]; (ev.Kind == cluster.HardwareFailed) != want {
				t.Fatalf("%v: hardware-wins collapse broken (any hardware input: %v)", ev, want)
			}
		}
		if swapped := failure.Merge(b, a); !sameEvents(swapped, got) {
			t.Fatalf("argument order changed the merge: %v vs %v", swapped, got)
		}
		ra := append(failure.Schedule(nil), a...)
		for i, j := 0, len(ra)-1; i < j; i, j = i+1, j-1 {
			ra[i], ra[j] = ra[j], ra[i]
		}
		if reordered := failure.Merge(ra, b); !sameEvents(reordered, got) {
			t.Fatalf("input order changed the merge: %v vs %v", reordered, got)
		}
		prefix := failure.Schedule{{At: -1, Rank: 7, Kind: cluster.HardwareFailed}}
		app := failure.AppendMerge(prefix, a, b)
		if app[0] != prefix[0] || !sameEvents(app[1:], got) {
			t.Fatalf("AppendMerge = %v, want %v after %v", app, got, prefix)
		}
	})
}
