// Command geminisim runs a configurable GEMINI training-with-failures
// simulation and prints a full report: job sizing, checkpoint plan,
// recovery probabilities, the live recovery trace, the run-health
// metrics, and the long-run effective-training-time comparison against
// the baselines.
//
// Example:
//
//	geminisim -model "GPT-2 100B" -instance p4d.24xlarge -machines 16 \
//	          -replicas 2 -days 10 -failures-per-day 4 -hardware 0.5 \
//	          -metrics out.prom -timeline out.csv
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"gemini"
	"gemini/internal/baselines"
	"gemini/internal/failure"
	"gemini/internal/runsim"
	"gemini/internal/simclock"
	"gemini/internal/training"
)

func main() {
	var (
		modelName   = flag.String("model", "GPT-2 100B", "Table 2 model name")
		instance    = flag.String("instance", "p4d.24xlarge", "Table 1 instance type")
		machines    = flag.Int("machines", 16, "number of training machines")
		replicas    = flag.Int("replicas", 2, "checkpoint replicas m")
		days        = flag.Float64("days", 10, "simulated horizon in days")
		perDay      = flag.Float64("failures-per-day", 4, "cluster failure rate")
		hwFraction  = flag.Float64("hardware", 0.5, "fraction of failures needing replacement")
		seed        = flag.Int64("seed", 1, "failure-schedule seed (Poisson mode)")
		poisson     = flag.Bool("poisson", false, "Poisson failure arrivals instead of fixed spacing")
		replacement = flag.Duration("replacement", 0, "machine replacement delay (0 = standby machines)")
		stratName   = flag.String("strategy", "gemini",
			"checkpoint strategy for the monitored control-plane run (one of: "+strings.Join(gemini.StrategyNames(), ", ")+")")
		renderTL    = flag.Bool("render-timeline", false, "render the iteration timeline with the checkpoint plan")
		traceOut    = flag.String("trace", "", "write a Chrome trace-event JSON (Perfetto-loadable) of a small traced run to this file")
		metricsOut  = flag.String("metrics", "", "write the run's metrics in Prometheus text exposition format to this file")
		timelineOut = flag.String("timeline", "", "write the sampled health-gauge timeline as CSV to this file")
		scenPath    = flag.String("scenario", "", "run a declarative scenario file as a campaign instead (see cmd/campaign for full control)")
	)
	flag.Parse()

	if *scenPath != "" {
		if err := runScenario(*scenPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	job, err := gemini.NewJob(gemini.JobSpec{
		Model: *modelName, Instance: *instance, Machines: *machines, Replicas: *replicas,
	}, gemini.WithStrategy(*stratName))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("job: %s on %d× %s, m=%d replicas, %s checkpoint strategy\n",
		*modelName, *machines, *instance, *replicas, *stratName)
	fmt.Printf("  checkpoint: %.1f GB total, %.1f GB/machine shard\n",
		job.Config.Model.CheckpointBytes()/1e9, job.Config.ShardBytesPerMachine()/1e9)
	fmt.Printf("  iteration: %.1f s (%.1f s network idle)\n",
		job.Timeline.Iteration.Seconds(), job.Timeline.IdleTime().Seconds())
	fmt.Printf("  plan: %d chunks, fits in idle spans: %v\n", len(job.Plan.Chunks), job.Plan.Fits)
	for k := 1; k <= 4 && k <= *machines; k++ {
		fmt.Printf("  P(recover from CPU memory | %d simultaneous failures) = %.3f\n",
			k, job.RecoveryProbability(k))
	}
	if *renderTL {
		fmt.Println()
		fmt.Print(training.RenderTimeline(job.Timeline, job.Plan, 100))
	}

	// One registry spans both runs: the executor fills training.*, the
	// monitored control-plane run below fills health.*.
	reg := gemini.NewMetricsRegistry()
	monitored, err := gemini.NewJob(job.Spec, gemini.WithMetrics(reg))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if res, err := monitored.ExecuteScheme(gemini.SchemeGemini); err == nil && !res.OOM {
		fmt.Printf("\nfluid executor (GEMINI schedule): iteration %.2f s, overhead %.1f%%\n",
			res.IterationTime.Seconds(), res.Overhead()*100)
		fmt.Printf("  idle utilization: %.3f of checkpoint bytes inside idle spans\n", res.IdleUtilization)
		fmt.Printf("  fabric: %s\n", res.FabricCounters)
	}

	if err := runHealth(job, reg, *metricsOut, *timelineOut); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	horizon := simclock.Duration(*days) * simclock.Day
	var fs failure.Schedule
	if *poisson {
		m := failure.Model{PerInstancePerDay: *perDay / float64(*machines), HardwareFraction: *hwFraction}
		fs, err = m.Generate(*machines, horizon, *seed)
	} else {
		fs, err = failure.FixedRate(*machines, *perDay, *hwFraction, horizon)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("\nfailure schedule: %d failures over %.0f days\n", len(fs), *days)

	fmt.Printf("\n%-10s %-10s %-12s %-12s %-22s\n", "solution", "ratio", "mean wasted", "total wasted", "recoveries (l/p/r)")
	for _, spec := range []baselines.Spec{job.GeminiSpec(), job.HighFreqSpec(), job.StrawmanSpec()} {
		cfg := runsim.Config{
			Spec: spec, Machines: *machines, Failures: fs, Horizon: horizon,
			ReplacementDelay: simclock.Duration(replacement.Seconds()),
		}
		if spec.UsesCPUMemory {
			cfg.Placement = job.Placement
		}
		res, err := runsim.Run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%-10s %-10.3f %-12s %-12s %d/%d/%d\n",
			spec.Name, res.EffectiveRatio, res.MeanWasted, res.TotalWasted,
			res.FromLocal, res.FromPeer, res.FromRemote)
	}

	if *traceOut != "" {
		// job.Spec carries the validated strategy, so the traced
		// control-plane run exercises the same policy as -strategy asked.
		if err := writeTrace(job, job.Spec, *traceOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	// Every NewJob above (the sized job, the monitored run, the traced
	// run) resolved through the shared derivation cache; one spec means
	// one miss and the rest hits.
	cs := gemini.DerivationCacheStats()
	fmt.Printf("\nderivation cache: %d hits, %d misses, %d evictions, %d entries (hit rate %.2f)\n",
		cs.Hits, cs.Misses, cs.Evictions, cs.Entries, cs.HitRate())
}

// runHealth runs a small deterministic monitored control-plane
// simulation — the same seeded software + hardware failure that the
// -trace export uses — with the run health monitor attached: the agent
// system fills the health.* gauges in reg, a recorder samples them once
// per iteration into a sim-time timeline, and every recovery leaves an
// Eq. 1 wasted-time record. The health report section always prints;
// -metrics and -timeline additionally export the registry as Prometheus
// text and the sampled timeline as CSV.
func runHealth(job *gemini.Job, reg *gemini.MetricsRegistry, promPath, csvPath string) error {
	spec := job.Spec
	iter := gemini.Duration(job.Timeline.Iteration)
	at := gemini.Time(3*iter + iter/2)
	sched, err := gemini.Faults().
		Crash(at, 1, gemini.SoftwareFailure).
		Crash(at, 2%spec.Machines, gemini.HardwareFailure).
		Build(spec.Machines)
	if err != nil {
		return err
	}
	monitored, err := gemini.NewJob(spec, gemini.WithFaults(sched))
	if err != nil {
		return err
	}
	engine, sys, err := monitored.RecoverySystem(gemini.DefaultCloudConfig())
	if err != nil {
		return err
	}
	sys.SetMetrics(reg)
	sys.SetRemoteEvery(10)
	rec := gemini.NewMetricsRecorder(reg, 4096)
	rec.Watch("health.iteration", "health.replica_coverage", "health.min_replicas",
		"health.ckpt_staleness_local", "health.ckpt_staleness_remote", "health.recoveries")
	rec.Start(engine, iter)
	sys.Start()
	engine.Run(gemini.Time(25 * iter))
	rec.Stop()

	fmt.Printf("\nhealth: monitored run (%s strategy, active policy %s), %d failures injected, %d samples at %.1f s cadence\n",
		sys.Strategy().Name(), sys.Strategy().Active(), len(sched), rec.Samples(), iter.Seconds())
	for _, ev := range sys.WastedEvents() {
		fmt.Printf("  failure ranks %v: recovered from %s ckpt v%d, lost %d iters, wasted %s (T_lost %s + T_recovery %s)\n",
			ev.Ranks, ev.Source, ev.Version, ev.LostIterations,
			ev.Wasted(), ev.TLost, ev.TRecovery)
	}
	for _, c := range reg.Snapshot() {
		fmt.Printf("  %s = %g\n", c.Name, c.Value)
	}

	if promPath != "" {
		gemini.ExportDerivationCacheMetrics(reg)
		var buf bytes.Buffer
		if err := gemini.WriteMetricsProm(&buf, reg); err != nil {
			return err
		}
		if err := os.WriteFile(promPath, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Printf("  wrote %s (Prometheus text exposition)\n", promPath)
	}
	if csvPath != "" {
		var buf bytes.Buffer
		if err := gemini.WriteTimelineCSV(&buf, rec); err != nil {
			return err
		}
		if err := os.WriteFile(csvPath, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Printf("  wrote %s (sampled health timeline)\n", csvPath)
	}
	return nil
}

// writeTrace renders one small deterministic traced run as Chrome
// trace-event JSON: a GEMINI-schedule executor run (training compute and
// collectives, checkpoint flows and copies on per-machine tracks) merged
// with a control-plane run where a seeded software + hardware failure
// drives the full §6.2 recovery (chaos injection, kvstore election,
// recovery phases).
func writeTrace(job *gemini.Job, spec gemini.JobSpec, path string) error {
	execTr := gemini.NewTracer()
	execJob, err := gemini.NewJob(spec, gemini.WithTracer(execTr))
	if err != nil {
		return err
	}
	res, err := execJob.ExecuteScheme(gemini.SchemeGemini)
	if err != nil {
		return err
	}
	if res.OOM {
		execTr = nil // nothing ran; export the control plane alone
	}

	iter := gemini.Duration(job.Timeline.Iteration)
	at := gemini.Time(3*iter + iter/2)
	sched, err := gemini.Faults().
		Crash(at, 1, gemini.SoftwareFailure).
		Crash(at, 2%spec.Machines, gemini.HardwareFailure).
		Build(spec.Machines)
	if err != nil {
		return err
	}
	traced, err := gemini.NewJob(spec, gemini.WithFaults(sched))
	if err != nil {
		return err
	}
	engine, sys, err := traced.RecoverySystem(gemini.DefaultCloudConfig())
	if err != nil {
		return err
	}
	ctl := gemini.NewTracer()
	sys.SetTracer(ctl)
	sys.SetRemoteEvery(10)
	sys.Start()
	engine.Run(gemini.Time(25 * iter))

	var buf bytes.Buffer
	if err := gemini.WriteTrace(&buf, execTr, ctl); err != nil {
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	st, err := gemini.TraceStatsFromJSON(buf.Bytes())
	if err != nil {
		return err
	}
	fmt.Printf("\ntrace: wrote %s (%d events, %d processes, categories:", path, st.Events, len(st.Processes))
	cats := make([]string, 0, len(st.Categories))
	for c := range st.Categories {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	for _, c := range cats {
		fmt.Printf(" %s=%d", c, st.Categories[c])
	}
	fmt.Println(")")
	fmt.Println("  load it at ui.perfetto.dev or chrome://tracing")
	return nil
}

// runScenario is the -scenario path: load, compile, and run the
// campaign with default options, printing the aggregate comparison.
// cmd/campaign is the full-featured front end (worker/seed overrides,
// JSON + HTML reports); this entry point keeps one-file scenarios
// reachable from the main simulator binary.
func runScenario(path string) error {
	s, err := gemini.LoadScenario(path)
	if err != nil {
		return err
	}
	c, err := s.Compile()
	if err != nil {
		return err
	}
	rep, err := gemini.RunCampaign(context.Background(), c, gemini.CampaignOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("campaign %q: %s on %d× %s, %.3g-day horizon × %d variations (seed %d)\n",
		rep.Scenario, rep.Model, rep.Machines, rep.Instance, rep.HorizonDays, rep.Variations, rep.Seed)
	fmt.Printf("\n%-10s %-10s %-12s %-10s %-20s\n", "solution", "ratio", "wasted h", "failures", "recoveries (l/p/r)")
	for _, sp := range rep.Specs {
		fmt.Printf("%-10s %-10.4f %-12.2f %-10d %d/%d/%d\n",
			sp.Name, sp.EffectiveRatio.Mean, sp.WastedHours.Mean, sp.Failures,
			sp.FromLocal, sp.FromPeer, sp.FromRemote)
	}
	fmt.Printf("\nreport hash: %s\n", rep.Hash)
	return nil
}
