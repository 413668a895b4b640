// The allocation gate runs without the race detector: under -race
// sync.Pool drops items at random, so pooled state reallocates and
// AllocsPerRun over-counts intermittently.
//go:build !race

package scenario

import (
	"context"
	"strings"
	"testing"
)

// A warm aggregated, run-recording campaign allocates a constant amount
// per variation: its run registries and schedule backings are recycled
// window slots, so none of them scale with the variation count. A
// seed-free (kind: fixed) background is built once by Compile, so it
// costs no more per variation than the pooled Poisson draw. Gated in
// ci.sh.
func TestRunCampaignWarmAllocs(t *testing.T) {
	perVariation := func(c *Compiled, variations int) float64 {
		opts := CampaignOptions{Workers: 2, Variations: variations, Aggregate: true, RecordRuns: true}
		run := func() {
			if _, err := RunCampaign(context.Background(), c, opts); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the window slots and the runsim pools
		return testing.AllocsPerRun(3, run) / float64(variations)
	}
	c := compiledChaosSmall(t)
	small, large := perVariation(c, 256), perVariation(c, 1024)
	t.Logf("allocs per variation: %.2f at 256, %.2f at 1024", small, large)
	if d := small - large; d > 1 || d < -1 {
		t.Fatalf("allocs per variation %.2f at 256 vs %.2f at 1024: per-campaign state is not recycled", small, large)
	}
	// Each run costs runsim's own two (the *Result header and Release's
	// pool pointer); the variation itself adds at most one more.
	if limit := float64(2*len(c.Specs) + 1); large > limit {
		t.Fatalf("allocs per variation %.2f at 1024, want ≤ %.0f", large, limit)
	}

	fixedYAML := strings.Replace(chaosSmallYAML,
		"kind: poisson\n  per_instance_per_day: 0.25", "kind: fixed\n  per_day: 4", 1)
	s, err := Parse([]byte(fixedYAML))
	if err != nil {
		t.Fatal(err)
	}
	if s.Failures.Kind != "fixed" {
		t.Fatalf("failures kind %q, want fixed", s.Failures.Kind)
	}
	fc, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	fixed := perVariation(fc, 1024)
	t.Logf("allocs per variation, kind fixed: %.2f at 1024", fixed)
	if fixed > large {
		t.Fatalf("kind fixed allocates %.2f per variation, more than poisson's %.2f", fixed, large)
	}
}
