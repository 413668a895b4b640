// Allocation gates run without the race detector: -race instruments
// allocations and would skew AllocsPerRun.
//go:build !race

package training

import (
	"testing"

	"gemini/internal/cluster"
	"gemini/internal/model"
)

// TestProfileWithJitterAllocationFlat pins the profiling loop's
// allocation behavior: the comm ops are read in place from the timeline,
// and the streaming recorder folds each iteration's idle spans into
// running sums over reused buffers, keeping no per-iteration trace. An
// extra window iteration therefore costs (amortised) no allocation at
// all. The marginal bound below fails if a per-iteration trace copy (~12
// allocs per iteration at GPT-2 100B depth) or a per-iteration CommOps()
// rebuild (~29 allocs and ~96 KB) comes back.
func TestProfileWithJitterAllocationFlat(t *testing.T) {
	cfg := MustNewConfig(model.MustByName("GPT-2 100B"), cluster.MustInstance("p4d.24xlarge"), 16)
	tl := MustBuildTimeline(cfg)
	allocsAt := func(window int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := tl.ProfileWithJitter(window, 0.05, 7); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocsAt(32), allocsAt(160)
	marginal := (large - small) / 128
	if marginal > 1 {
		t.Fatalf("profiling loop allocates %.1f times per marginal window iteration, want ≤ 1 "+
			"(per-iteration trace copy or CommOps rebuilt inside the loop?)", marginal)
	}
}

// TestBuildTimelineSteadyStateAllocs pins the cached-label guarantee:
// once a layer depth's labels are interned, building another timeline
// allocates only the handful of result slices (ops, steps, rs queue,
// compute starts) — no per-step label formatting.
func TestBuildTimelineSteadyStateAllocs(t *testing.T) {
	cfg := MustNewConfig(model.MustByName("GPT-2 100B"), cluster.MustInstance("p4d.24xlarge"), 16)
	MustBuildTimeline(cfg) // intern this depth's labels
	allocs := testing.AllocsPerRun(20, func() {
		MustBuildTimeline(cfg)
	})
	if allocs > 8 {
		t.Fatalf("steady-state BuildTimeline allocates %v times/op, want ≤ 8", allocs)
	}
}

// TestBuildTimelineForSteadyStateAllocs pins the other two parallelisms'
// timeline builds at 1k machines to a constant allocation count: the
// timeline and its pre-sized op slice. Data-parallel labels come from the
// interned per-layer cache and pipeline slots share one label per kind,
// so no op formats a label — 12k pipeline slots or not.
func TestBuildTimelineForSteadyStateAllocs(t *testing.T) {
	cfg := MustNewConfig(model.MustByName("GPT-2 100B"), cluster.MustInstance("p4d.24xlarge"), 1000)
	for _, p := range []Parallelism{PipelineParallel, DataParallel} {
		if _, err := BuildTimelineFor(cfg, p); err != nil { // intern this depth's labels
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := BuildTimelineFor(cfg, p); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("steady-state %v timeline allocates %v times/op, want ≤ 2 (timeline and ops)", p, allocs)
		}
	}
}
