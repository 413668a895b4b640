package main

// The campaign workload: the checked-in chaos-10k scenario, its seed
// replaced by the workload seed, through Parse -> Compile ->
// RunCampaign (aggregation and run records on, nproc workers) -> the
// JSON, HTML and aggregated-prom reports -> Outliers + Replay. Each
// round then runs the same variations again through the public
// per-layer calls (Compiled.FailureSchedule, runsim.Run,
// metrics.Registry.Merge), timing every variation; their per-spec
// totals and merged registry must reproduce the report exactly.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"time"

	"gemini/internal/derive"
	"gemini/internal/failure"
	"gemini/internal/metrics"
	"gemini/internal/parallel"
	"gemini/internal/runsim"
	"gemini/internal/scenario"
	"gemini/internal/training"
)

const (
	campaignScenario = "examples/scenarios/chaos-10k.yaml"
	flightOutliers   = 5  // worst runs replayed per round
	allocProbeRuns   = 50 // variations in the traced runsim allocation probe
)

type campaign struct {
	input      []byte // the generated scenario file
	variations int
	workers    int
	key        derive.Key
	c          *scenario.Compiled
	last       [3][]byte // the last round's JSON, HTML and prom reports
}

var seedLine = regexp.MustCompile(`(?m)^seed:.*$`)

func newCampaign(cfg config) (*campaign, error) {
	data, err := os.ReadFile(filepath.Join(cfg.root, campaignScenario))
	if err != nil {
		return nil, err
	}
	if !seedLine.Match(data) {
		return nil, fmt.Errorf("%s has no top-level seed line", campaignScenario)
	}
	w := &campaign{
		input:      seedLine.ReplaceAll(data, []byte(fmt.Sprintf("seed: %d", cfg.seed))),
		variations: cfg.size.variations,
		workers:    runtime.NumCPU(),
	}
	// Learn the derivation key once, so traced set-ups can give the
	// cold derivation its own span inside the compile span.
	sc, err := scenario.Parse(w.input)
	if err != nil {
		return nil, err
	}
	c, err := sc.Compile()
	if err != nil {
		return nil, err
	}
	w.key = c.Job.Spec.CacheKey()
	return w, nil
}

func (w *campaign) setup(rec *recorder) (map[string]float64, error) {
	derive.Shared().Clear()
	rec.begin("scenario.parse")
	sc, err := scenario.Parse(w.input)
	rec.end()
	if err != nil {
		return nil, err
	}
	rec.begin("scenario.compile")
	if rec != nil {
		rec.begin("derive.build")
		_, err = derive.Shared().Get(w.key)
		rec.end()
		if err != nil {
			return nil, err
		}
	}
	w.c, err = sc.Compile()
	rec.end()
	if err != nil || rec == nil {
		return nil, err
	}
	if err := probeDerivation(rec, w.c.Job.Config, w.c.Job.Spec.Parallelism); err != nil {
		return nil, err
	}
	st := rec.selfTimes()
	return map[string]float64{
		"scenario.parse_ms":    ms(st["scenario.parse"]),
		"scenario.compile_ms":  ms(st["scenario.compile"]),
		"derive.build_ms":      ms(st["derive.build"]),
		"training.timeline_ms": ms(st["training.timeline"]),
		"profile.build_ms":     ms(st["profile.build"]),
	}, nil
}

// probeDerivation times the two heaviest derivation stages directly at
// the workload's key: the iteration timeline and its §5.4 profile. The
// same work runs inside derive.build.
func probeDerivation(rec *recorder, cfg training.Config, par training.Parallelism) error {
	rec.begin("training.timeline")
	tl, err := training.BuildTimelineFor(cfg, par)
	rec.end()
	if err != nil {
		return err
	}
	rec.begin("profile.build")
	_, err = tl.Profile(20)
	rec.end()
	return err
}

// variationSlot is one variation's outcome in the per-layer fan-out.
type variationSlot struct {
	start, schedEnd, end time.Time
	runStart, runEnd     []time.Time
	events               int
	ratio                []float64
	wastedH              []float64
	fails, local         []int
	peer, remote         []int
	regs                 []*metrics.Registry
}

func (w *campaign) round(rec *recorder, chk *checker) (roundResult, error) {
	ctx := context.Background()
	c := w.c
	m0 := readMem()
	t0 := time.Now()

	rec.begin("scenario.run_campaign")
	rep, err := scenario.RunCampaign(ctx, c, scenario.CampaignOptions{
		Workers: w.workers, Variations: w.variations, Aggregate: true, RecordRuns: true,
	})
	rec.end()
	if err != nil {
		return roundResult{}, err
	}
	var reports [3]bytes.Buffer
	rec.begin("report.json")
	js, err := rep.JSON()
	rec.end()
	if err != nil {
		return roundResult{}, err
	}
	reports[0].Write(js)
	rec.begin("report.html")
	err = scenario.WriteHTML(&reports[1], rep)
	rec.end()
	if err != nil {
		return roundResult{}, err
	}
	rec.begin("report.prom")
	err = rep.WriteAggregatedProm(&reports[2])
	rec.end()
	if err != nil {
		return roundResult{}, err
	}
	rec.begin("flight.outliers")
	outliers, err := scenario.Outliers(rep, "wasted", flightOutliers)
	rec.end()
	if err != nil {
		return roundResult{}, err
	}
	rec.begin("flight.replay")
	for _, o := range outliers {
		_, err := c.Replay(o)
		chk.check(err == nil, "flight replay of variation %d spec %s: %v", o.Variation, o.Spec, err)
	}
	rec.end()

	slots, fanWall, err := w.fanout(ctx, rec)
	if err != nil {
		return roundResult{}, err
	}
	rec.begin("metrics.merge")
	agg := metrics.NewRegistry()
	specAggs := make([]*metrics.Registry, len(c.Specs))
	for si := range specAggs {
		specAggs[si] = metrics.NewRegistry()
	}
	for v := range slots {
		for si, reg := range slots[v].regs {
			agg.Merge(reg)
			specAggs[si].Merge(reg)
		}
	}
	rec.end()
	wall := time.Since(t0)
	alloc := readMem().bytes - m0.bytes

	// Checks, outside the timed phase.
	chk.check(rep.ComputeHash() == rep.Hash, "report hash does not recompute")
	w.checkFanout(chk, rep, slots, agg, specAggs, reports[2].Bytes())
	for i := range reports {
		w.last[i] = reports[i].Bytes()
	}

	nspecs := len(c.Specs)
	horizon := c.Scenario.Horizon.Seconds()
	rr := roundResult{
		wall:   wall,
		alloc:  alloc,
		simS:   float64(2*w.variations*nspecs+len(outliers)) * horizon,
		digest: rep.Hash,
	}
	for _, s := range slots {
		rr.steps = append(rr.steps, s.end.Sub(s.start).Seconds())
	}
	if rec != nil {
		rr.layers, err = w.layers(rec, slots, fanWall)
	}
	return rr, err
}

// fanout runs every variation through the public per-layer calls on
// nproc workers, the way RunCampaign does, timing each call.
func (w *campaign) fanout(ctx context.Context, rec *recorder) ([]variationSlot, time.Duration, error) {
	c := w.c
	nspecs := len(c.Specs)
	slots := make([]variationSlot, w.variations)
	rec.begin("parallel.fanout")
	parent := rec.current()
	t0 := time.Now()
	err := parallel.ForEachErr(ctx, w.workers, w.variations, func(v int) error {
		sl := variationSlot{
			start:    time.Now(),
			runStart: make([]time.Time, nspecs), runEnd: make([]time.Time, nspecs),
			ratio: make([]float64, nspecs), wastedH: make([]float64, nspecs),
			fails: make([]int, nspecs), local: make([]int, nspecs),
			peer: make([]int, nspecs), remote: make([]int, nspecs),
			regs: make([]*metrics.Registry, nspecs),
		}
		fs, err := c.FailureSchedule(v)
		if err != nil {
			return err
		}
		sl.schedEnd = time.Now()
		sl.events = len(fs)
		for si := range c.Specs {
			cfg := w.runConfig(si, fs)
			reg := metrics.NewRegistry()
			cfg.Obs.Metrics = reg
			sl.runStart[si] = time.Now()
			res, err := runsim.Run(cfg)
			sl.runEnd[si] = time.Now()
			if err != nil {
				return fmt.Errorf("variation %d spec %s: %w", v, c.Specs[si].Name, err)
			}
			sl.ratio[si] = res.EffectiveRatio
			sl.wastedH[si] = res.TotalWasted.Seconds() / 3600
			sl.fails[si], sl.local[si], sl.peer[si], sl.remote[si] = res.Failures, res.FromLocal, res.FromPeer, res.FromRemote
			sl.regs[si] = reg
			res.Release()
		}
		sl.end = time.Now()
		slots[v] = sl
		return nil
	})
	fanWall := time.Since(t0)
	rec.end()
	if err != nil {
		return nil, 0, err
	}
	if rec != nil {
		for _, sl := range slots {
			vi := rec.add("scenario.variation", parent, sl.start, sl.end)
			rec.add("failure.schedule", vi, sl.start, sl.schedEnd)
			for si := range sl.runStart {
				rec.add("runsim.run", vi, sl.runStart[si], sl.runEnd[si])
			}
		}
	}
	return slots, fanWall, nil
}

// runConfig is the runsim input RunCampaign builds for spec si.
func (w *campaign) runConfig(si int, fs failure.Schedule) runsim.Config {
	c := w.c
	s := c.Scenario
	cfg := runsim.Config{
		Spec:               c.Specs[si],
		Machines:           s.Job.Machines,
		Failures:           fs,
		Horizon:            s.Horizon,
		ReplacementDelay:   s.Run.ReplacementDelay,
		SimultaneityWindow: s.Run.SimultaneityWindow,
	}
	if cfg.Spec.UsesCPUMemory {
		cfg.Placement = c.Job.Placement
	}
	return cfg
}

// checkFanout compares the fan-out's per-spec totals and merged
// registries with the report RunCampaign produced from the same inputs.
func (w *campaign) checkFanout(chk *checker, rep *scenario.Report, slots []variationSlot, agg *metrics.Registry, specAggs []*metrics.Registry, prom []byte) {
	for si, sr := range rep.Specs {
		var fails, local, peer, remote int
		ratios := make([]float64, len(slots))
		wasted := make([]float64, len(slots))
		for v, sl := range slots {
			fails += sl.fails[si]
			local += sl.local[si]
			peer += sl.peer[si]
			remote += sl.remote[si]
			ratios[v], wasted[v] = sl.ratio[si], sl.wastedH[si]
		}
		chk.check(fails == sr.Failures && local == sr.FromLocal && peer == sr.FromPeer && remote == sr.FromRemote,
			"spec %s: fan-out totals %d/%d/%d/%d, report %d/%d/%d/%d", sr.Name,
			fails, local, peer, remote, sr.Failures, sr.FromLocal, sr.FromPeer, sr.FromRemote)
		chk.check(stats(ratios) == sr.EffectiveRatio && stats(wasted) == sr.WastedHours,
			"spec %s: fan-out ratio or wasted-hours summary differs from the report", sr.Name)
		chk.check(sameProm(specAggs[si], rep.SpecRegistry(si)), "spec %s: fan-out merged registry differs from the report's", sr.Name)
	}
	var buf bytes.Buffer
	err := metrics.WriteProm(&buf, agg)
	chk.check(err == nil && bytes.Equal(buf.Bytes(), prom), "fan-out merged registry differs from the aggregated prom (err %v)", err)
}

// sameProm reports whether two registries render identically.
func sameProm(a, b *metrics.Registry) bool {
	var ba, bb bytes.Buffer
	return metrics.WriteProm(&ba, a) == nil && metrics.WriteProm(&bb, b) == nil && bytes.Equal(ba.Bytes(), bb.Bytes())
}

func stats(xs []float64) scenario.Stats {
	s := metrics.Summarize(xs)
	return scenario.Stats{Mean: s.Mean, Min: s.Min, Max: s.Max, P50: s.P50, P90: s.P90, P99: s.P99, StdDev: s.StdDev}
}

// layers derives the campaign's per-layer values from a traced round.
func (w *campaign) layers(rec *recorder, slots []variationSlot, fanWall time.Duration) (map[string]float64, error) {
	st := rec.selfTimes()
	out := map[string]float64{
		"metrics.merge_ms":   ms(st["metrics.merge"]),
		"report.json_ms":     ms(st["report.json"]),
		"report.html_ms":     ms(st["report.html"]),
		"report.prom_ms":     ms(st["report.prom"]),
		"flight.outliers_ms": ms(st["flight.outliers"]),
		"flight.replay_ms":   ms(st["flight.replay"]),
	}
	sched := rec.durations("failure.schedule")
	runs := rec.durations("runsim.run")
	out["failure.schedule_us_p50"] = median(sched) * 1e6
	out["runsim.run_us_p50"] = median(runs) * 1e6
	out["runsim.run_us_p99"] = quantile(runs, 0.99) * 1e6
	var busy float64
	var events, fails, local, peer, remote int
	for _, sl := range slots {
		busy += sl.end.Sub(sl.start).Seconds()
		events += sl.events
		for si := range sl.fails {
			fails += sl.fails[si]
			local += sl.local[si]
			peer += sl.peer[si]
			remote += sl.remote[si]
		}
	}
	out["parallel.efficiency"] = busy / (float64(w.workers) * fanWall.Seconds())
	out["failure.events_per_variation"] = float64(events) / float64(len(slots))
	out["runsim.failures"] = float64(fails)
	out["runsim.from_local"] = float64(local)
	out["runsim.from_peer"] = float64(peer)
	out["runsim.from_remote"] = float64(remote)
	allocs, err := w.allocsPerRun()
	out["runsim.allocs_per_run"] = allocs
	return out, err
}

// allocsPerRun runs the first variations' runsim calls serially between
// two allocation-counter reads.
func (w *campaign) allocsPerRun() (float64, error) {
	n := min(allocProbeRuns, w.variations)
	var cfgs []runsim.Config
	for v := 0; v < n; v++ {
		fs, err := w.c.FailureSchedule(v)
		if err != nil {
			return 0, err
		}
		for si := range w.c.Specs {
			cfgs = append(cfgs, w.runConfig(si, fs))
		}
	}
	regs := make([]*metrics.Registry, len(cfgs))
	for i := range regs {
		regs[i] = metrics.NewRegistry()
	}
	m0 := readMem()
	for i, cfg := range cfgs {
		cfg.Obs.Metrics = regs[i]
		res, err := runsim.Run(cfg)
		if err != nil {
			return 0, err
		}
		res.Release()
	}
	return float64(readMem().objects-m0.objects) / float64(len(cfgs)), nil
}

// finish checks that the reports do not depend on the worker count.
func (w *campaign) finish(chk *checker) error {
	rep, err := scenario.RunCampaign(context.Background(), w.c, scenario.CampaignOptions{
		Workers: 1, Variations: w.variations, Aggregate: true, RecordRuns: true,
	})
	if err != nil {
		return err
	}
	js, err := rep.JSON()
	if err != nil {
		return err
	}
	var html, prom bytes.Buffer
	if err := scenario.WriteHTML(&html, rep); err != nil {
		return err
	}
	if err := rep.WriteAggregatedProm(&prom); err != nil {
		return err
	}
	for i, b := range [][]byte{js, html.Bytes(), prom.Bytes()} {
		chk.check(bytes.Equal(b, w.last[i]), "report %d differs between workers=1 and workers=%d", i, w.workers)
	}
	return nil
}
