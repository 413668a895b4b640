package scenario

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"gemini/internal/metrics"
	"gemini/internal/obs"
	"gemini/internal/runsim"
	"gemini/internal/simclock"
)

// chaosSmallYAML is the small scenario plus a correlated crash, so every
// variation's schedule goes through the merge with chaos failures.
const chaosSmallYAML = smallYAML + `
chaos:
  - at: 20h
    kind: correlated-crash
    ranks: [1, 2, 3]
    state: hardware
`

func compiledChaosSmall(tb testing.TB) *Compiled {
	tb.Helper()
	s, err := Parse([]byte(chaosSmallYAML))
	if err != nil {
		tb.Fatal(err)
	}
	c, err := s.Compile()
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// referenceCampaign is the campaign runner before windowing, kept as a
// test oracle: every (variation, spec) run gets a fresh registry, all of
// them stay live until the end, and the rollup merges them in
// (variation, spec) order after the last run. It runs sequentially; the
// old runner was worker-count independent.
func referenceCampaign(c *Compiled, variations int) (*Report, error) {
	s := c.Scenario
	nspecs := len(c.Specs)
	type variationResult struct {
		ratio   []float64
		wasted  []simclock.Duration
		fails   []int
		local   []int
		peer    []int
		remote  []int
		records []RunRecord
		regs    []*metrics.Registry
	}
	slots := make([]variationResult, variations)
	for v := range slots {
		fs, err := c.FailureSchedule(v)
		if err != nil {
			return nil, err
		}
		vr := variationResult{
			ratio:   make([]float64, nspecs),
			wasted:  make([]simclock.Duration, nspecs),
			fails:   make([]int, nspecs),
			local:   make([]int, nspecs),
			peer:    make([]int, nspecs),
			remote:  make([]int, nspecs),
			records: make([]RunRecord, nspecs),
			regs:    make([]*metrics.Registry, nspecs),
		}
		for si, spec := range c.Specs {
			cfg := runsim.Config{
				Spec:               spec,
				Machines:           s.Job.Machines,
				Failures:           fs,
				Horizon:            s.Horizon,
				ReplacementDelay:   s.Run.ReplacementDelay,
				SimultaneityWindow: s.Run.SimultaneityWindow,
			}
			if spec.UsesCPUMemory {
				cfg.Placement = c.Job.Placement
			}
			reg := metrics.NewRegistry()
			cfg.Obs.Metrics = reg
			res, err := runsim.Run(cfg)
			if err != nil {
				return nil, err
			}
			vr.ratio[si] = res.EffectiveRatio
			vr.wasted[si] = res.TotalWasted
			vr.fails[si] = res.Failures
			vr.local[si] = res.FromLocal
			vr.peer[si] = res.FromPeer
			vr.remote[si] = res.FromRemote
			vr.records[si] = makeRecord(v, spec.Name, res)
			vr.regs[si] = reg
		}
		slots[v] = vr
	}
	rep := &Report{
		Scenario:       s.Name,
		Description:    s.Description,
		Seed:           s.Seed,
		Variations:     variations,
		Model:          s.Job.Model,
		Instance:       c.Job.Spec.Instance,
		Machines:       s.Job.Machines,
		Replicas:       c.Job.Spec.Replicas,
		HorizonDays:    s.Horizon.Seconds() / simclock.Day.Seconds(),
		ChaosEvents:    len(c.Chaos),
		FailuresPerDay: c.Model.ClusterFailuresPerDay(s.Job.Machines),
	}
	ratios := make([]float64, variations)
	wastedH := make([]float64, variations)
	for si, spec := range c.Specs {
		sr := SpecReport{Name: spec.Name}
		for v := range slots {
			ratios[v] = slots[v].ratio[si]
			wastedH[v] = slots[v].wasted[si].Seconds() / 3600
			sr.Failures += slots[v].fails[si]
			sr.FromLocal += slots[v].local[si]
			sr.FromPeer += slots[v].peer[si]
			sr.FromRemote += slots[v].remote[si]
		}
		sr.EffectiveRatio = toStats(metrics.Summarize(ratios))
		sr.WastedHours = toStats(metrics.Summarize(wastedH))
		if total := sr.FromLocal + sr.FromPeer + sr.FromRemote; total > 0 {
			sr.InMemoryFraction = float64(sr.FromLocal+sr.FromPeer) / float64(total)
		}
		rep.Specs = append(rep.Specs, sr)
	}
	rep.Runs = make([]RunRecord, 0, variations*nspecs)
	for v := range slots {
		rep.Runs = append(rep.Runs, slots[v].records...)
	}
	rep.agg = metrics.NewRegistry()
	rep.specAggs = make([]*metrics.Registry, nspecs)
	for si := range c.Specs {
		rep.specAggs[si] = metrics.NewRegistry()
	}
	for v := range slots {
		for si, reg := range slots[v].regs {
			rep.agg.Merge(reg)
			rep.specAggs[si].Merge(reg)
		}
	}
	ar := &AggregateReport{Campaign: aggregateRows(rep.agg)}
	for si, spec := range c.Specs {
		ar.Specs = append(ar.Specs, SpecAggregate{Name: spec.Name, Rows: aggregateRows(rep.specAggs[si])})
	}
	rep.Aggregates = ar
	rep.Hash = rep.ComputeHash()
	return rep, nil
}

// renderAll returns a report's JSON, HTML and aggregated prom bytes.
func renderAll(t *testing.T, rep *Report) [3][]byte {
	t.Helper()
	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var html, prom bytes.Buffer
	if err := WriteHTML(&html, rep); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteAggregatedProm(&prom); err != nil {
		t.Fatal(err)
	}
	return [3][]byte{js, html.Bytes(), prom.Bytes()}
}

// The windowed rollup — registries merged window by window and reused —
// renders byte-identically to the fresh-registry, merge-after-the-
// barrier runner at variation counts on both sides of every window
// boundary and at any worker count, with the live sinks attached.
func TestRunCampaignWindowedMatchesReference(t *testing.T) {
	c := compiledChaosSmall(t)
	nspecs := len(c.Specs)
	W := campaignWindow
	for _, variations := range []int{1, W - 1, W, W + 1, 3*W + 7} {
		ref, err := referenceCampaign(c, variations)
		if err != nil {
			t.Fatal(err)
		}
		want := renderAll(t, ref)
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("v%d/w%d", variations, workers), func(t *testing.T) {
				prog := obs.NewProgress()
				live := obs.NewSyncRegistry()
				rep, err := RunCampaign(context.Background(), c, CampaignOptions{
					Workers: workers, Variations: variations,
					Aggregate: true, RecordRuns: true,
					Progress: prog, Live: live,
				})
				if err != nil {
					t.Fatal(err)
				}
				got := renderAll(t, rep)
				for i, name := range []string{"JSON", "HTML", "aggregated prom"} {
					if !bytes.Equal(got[i], want[i]) {
						t.Errorf("%s differs from the reference:\n%s\nvs\n%s", name, got[i], want[i])
					}
				}
				if done := prog.Snapshot().DoneRuns; done != int64(variations) {
					t.Errorf("progress saw %d finished runs, want %d", done, variations)
				}
				n, ok := live.Snapshot().Get("run.effective_ratio.count")
				if !ok || n != float64(variations*nspecs) {
					t.Errorf("live run.effective_ratio count %v (%v), want %d", n, ok, variations*nspecs)
				}
			})
		}
	}
}

// A cancelled context stops a multi-window campaign with the context's
// error, as it stopped the single fan-out.
func TestRunCampaignCancelled(t *testing.T) {
	c := compiledChaosSmall(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCampaign(ctx, c, CampaignOptions{Variations: 3 * campaignWindow}); err != context.Canceled {
		t.Fatalf("cancelled campaign returned %v, want context.Canceled", err)
	}
}

// outliersOracle is Outliers before the top-k buffer: copy every record
// and stable-sort the copy. Kept as the reference ranking.
func outliersOracle(rep *Report, key string, k int) []RunRecord {
	badness := func(r RunRecord) float64 { return r.WastedSeconds }
	switch key {
	case "ratio":
		badness = func(r RunRecord) float64 { return -r.EffectiveRatio }
	case "wasted-vs-spec":
		type acc struct {
			sum float64
			n   int
		}
		means := make(map[string]acc)
		for _, r := range rep.Runs {
			a := means[r.Spec]
			a.sum += r.WastedSeconds
			a.n++
			means[r.Spec] = a
		}
		badness = func(r RunRecord) float64 {
			a := means[r.Spec]
			return r.WastedSeconds - a.sum/float64(a.n)
		}
	}
	ranked := append([]RunRecord(nil), rep.Runs...)
	sort.SliceStable(ranked, func(i, j int) bool {
		bi, bj := badness(ranked[i]), badness(ranked[j])
		if bi != bj {
			return bi > bj
		}
		if ranked[i].Variation != ranked[j].Variation {
			return ranked[i].Variation < ranked[j].Variation
		}
		return ranked[i].Spec < ranked[j].Spec
	})
	if k < len(ranked) {
		ranked = ranked[:k]
	}
	return ranked
}

// The one-pass top-k ranking returns exactly what copying and
// stable-sorting every record did, for every key and k, including
// records tied on badness and fully identical records (where the
// earlier one must win).
func TestOutliersMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	specs := []string{"A", "B", "C"}
	var runs []RunRecord
	for v := 0; v < 40; v++ {
		for _, sp := range specs {
			runs = append(runs, RunRecord{
				Variation: v, Spec: sp,
				// Few distinct values, so badness ties are common.
				WastedSeconds:  float64(100 * rng.Intn(6)),
				EffectiveRatio: 0.9 + 0.02*float64(rng.Intn(4)),
				Failures:       len(runs),
			})
		}
	}
	// Records equal in every ranked field; Failures tells them apart.
	runs = append(runs, runs[7], runs[7], runs[30])
	runs[len(runs)-3].Failures = -1
	runs[len(runs)-2].Failures = -2
	// And an unsorted record order.
	rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
	rep := &Report{Runs: runs}
	for _, key := range FlightKeys {
		for _, k := range []int{0, 1, 5, len(runs), len(runs) + 1} {
			got, err := Outliers(rep, key, k)
			if err != nil {
				t.Fatal(err)
			}
			want := outliersOracle(rep, key, k)
			if len(got) != len(want) {
				t.Fatalf("%s k=%d: %d records, want %d", key, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s k=%d: rank %d is %+v, want %+v", key, k, i, got[i], want[i])
				}
			}
		}
	}
	if _, err := Outliers(rep, "wasted", -1); err == nil {
		t.Fatal("negative k did not error")
	}
}
