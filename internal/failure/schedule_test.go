package failure

import (
	"math/rand"
	"sync"
	"testing"

	"gemini/internal/cluster"
	"gemini/internal/simclock"
)

// generateFresh is Generate before pooling: a fresh generator per call.
// Kept as the reference stream.
func generateFresh(m Model, n int, horizon simclock.Duration, seed int64) Schedule {
	rate := m.ClusterFailuresPerDay(n) / simclock.Day.Seconds()
	rng := rand.New(rand.NewSource(seed))
	var out Schedule
	if rate > 0 {
		t := simclock.Time(0)
		for {
			t = t.Add(simclock.Duration(rng.ExpFloat64() / rate))
			if t >= simclock.Time(horizon) {
				break
			}
			kind := cluster.SoftwareFailed
			if rng.Float64() < m.HardwareFraction {
				kind = cluster.HardwareFailed
			}
			out = append(out, Event{At: t, Rank: rng.Intn(n), Kind: kind})
		}
	}
	return out
}

func sameSchedule(a, b Schedule) bool {
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

// A re-seeded pooled generator draws exactly the stream a fresh
// rand.NewSource(seed) does — across seeds, models and sizes, appended
// after existing contents, and from concurrent goroutines sharing the
// pool (run under -race by ci.sh).
func TestGenerateMatchesFreshSource(t *testing.T) {
	type job struct {
		m       Model
		n       int
		horizon simclock.Duration
		seed    int64
	}
	var jobs []job
	for _, m := range []Model{OPTModel(), {PerInstancePerDay: 0.3, HardwareFraction: 0.1}} {
		for _, n := range []int{1, 16, 1000} {
			for seed := int64(-3); seed < 40; seed += 7 {
				jobs = append(jobs, job{m, n, 30 * simclock.Day, seed})
			}
		}
	}
	want := make([]Schedule, len(jobs))
	for i, j := range jobs {
		want[i] = generateFresh(j.m, j.n, j.horizon, j.seed)
	}
	for i, j := range jobs {
		got, err := j.m.Generate(j.n, j.horizon, j.seed)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSchedule(got, want[i]) {
			t.Fatalf("%+v: pooled Generate diverged from a fresh source", j)
		}
	}
	// Appending keeps the prefix and draws the same stream after it.
	prefix := Schedule{{At: 1, Rank: 0, Kind: cluster.SoftwareFailed}}
	got, err := jobs[3].m.AppendGenerate(prefix, jobs[3].n, jobs[3].horizon, jobs[3].seed)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != prefix[0] || !sameSchedule(got[1:], want[3]) {
		t.Fatal("AppendGenerate did not append the reference stream after dst")
	}

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf Schedule
			for r := 0; r < 5; r++ {
				for i := g % 3; i < len(jobs); i += 3 {
					j := jobs[i]
					var err error
					buf, err = j.m.AppendGenerate(buf[:0], j.n, j.horizon, j.seed)
					if err != nil || !sameSchedule(buf, want[i]) {
						errs <- "concurrent Generate diverged from a fresh source"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
