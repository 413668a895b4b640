package main

// The dataplane workload: Job.ExecuteScheme for all five §7.4 schemes
// (Baseline, Blocking, Naive, NoPipeline, GEMINI) on GPT-2 100B with 64
// p4d machines — Algorithm 2's interleaved checkpoint traffic through
// the netsim flow engine and the training executor. The inputs have no
// randomness of their own; the seed fixes the order the schemes run in.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"gemini/internal/core"
	"gemini/internal/derive"
	"gemini/internal/schedule"
	"gemini/internal/training"
)

type dataplane struct {
	spec  core.JobSpec
	order []schedule.Scheme
	job   *core.Job
}

func newDataplane(cfg config) (*dataplane, error) {
	w := &dataplane{spec: core.JobSpec{Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: 64}}
	for _, i := range rand.New(rand.NewSource(cfg.seed)).Perm(len(schemeNames)) {
		w.order = append(w.order, schedule.Scheme(i))
	}
	return w, nil
}

func (w *dataplane) setup(rec *recorder) (map[string]float64, error) {
	derive.Shared().Clear()
	rec.begin("core.newjob")
	if rec != nil {
		rec.begin("derive.build")
		_, err := derive.Shared().Get(w.spec.CacheKey())
		rec.end()
		if err != nil {
			return nil, err
		}
	}
	job, err := core.NewJob(w.spec)
	rec.end()
	if err != nil {
		return nil, err
	}
	w.job = job
	if rec == nil {
		return nil, nil
	}
	if err := probeDerivation(rec, job.Config, job.Spec.Parallelism); err != nil {
		return nil, err
	}
	st := rec.selfTimes()
	return map[string]float64{
		"core.newjob_ms":       ms(st["core.newjob"]),
		"derive.build_ms":      ms(st["derive.build"]),
		"training.timeline_ms": ms(st["training.timeline"]),
		"profile.build_ms":     ms(st["profile.build"]),
	}, nil
}

func (w *dataplane) round(rec *recorder, chk *checker) (roundResult, error) {
	var rr roundResult
	results := make([]*training.ExecResult, len(schemeNames))
	iterations := training.DefaultExecOptions(nil, 0).Iterations
	m0 := readMem()
	t0 := time.Now()
	for _, s := range w.order {
		ts := time.Now()
		rec.begin("training.execute." + schemeNames[s])
		res, err := w.job.ExecuteScheme(s)
		rec.end()
		rr.steps = append(rr.steps, time.Since(ts).Seconds())
		if err != nil {
			return rr, fmt.Errorf("%v: %w", s, err)
		}
		results[s] = res
		if !res.OOM {
			rr.simS += float64(iterations) * res.IterationTime.Seconds()
		}
	}
	rr.wall = time.Since(t0)
	m1 := readMem()
	rr.alloc = m1.bytes - m0.bytes

	digest := sha256.New()
	lv := map[string]float64{}
	var flows float64
	for s, res := range results {
		name := schemeNames[s]
		c := res.FabricCounters
		started, _ := c.Get("flows_started")
		finished, _ := c.Get("flows_finished")
		if res.OOM {
			chk.check(schedule.Scheme(s) == schedule.SchemeNaive, "%s reports OOM", name)
		} else {
			chk.check(started == finished, "%s: %v flows started, %v finished", name, started, finished)
			chk.check(res.Overhead() >= 0, "%s: negative overhead %v", name, res.Overhead())
		}
		if schedule.Scheme(s) == schedule.SchemeNaive {
			chk.check(res.OOM, "naive interleaving should run out of GPU memory")
		}
		fmt.Fprintf(digest, "%s %x %x %x %x %x %x %t %x %s\n", name,
			float64(res.IterationTime), float64(res.BaselineIteration), float64(res.CheckpointTime),
			float64(res.CheckpointWallTime), float64(res.NetworkIdle), res.IdleUtilization,
			res.OOM, res.RequiredBufferBytes, c)
		flows += started
		lv["training.overhead_pct."+name] = res.Overhead() * 100
		lv["training.idle_utilization."+name] = res.IdleUtilization
		for _, k := range [][2]string{
			{"netsim.settle_ops", "settle_ops"}, {"netsim.recomputes", "recomputes"},
			{"netsim.waterfill_rounds", "waterfill_rounds"},
		} {
			v, _ := c.Get(k[1])
			lv[k[0]] += v
		}
		peak, _ := c.Get("peak_concurrent_flows")
		lv["netsim.peak_flows"] = max(lv["netsim.peak_flows"], peak)
	}
	rr.digest = hex.EncodeToString(digest.Sum(nil))[:16]
	if rec != nil {
		st := rec.selfTimes()
		for _, name := range schemeNames {
			lv["training.execute_ms."+name] = ms(st["training.execute."+name])
		}
		lv["netsim.flows"] = flows
		lv["netsim.flow_us"] = rr.wall.Seconds() / flows * 1e6
		lv["netsim.allocs_per_flow"] = float64(m1.objects-m0.objects) / flows
		rr.layers = lv
	}
	return rr, nil
}

func (w *dataplane) finish(*checker) error { return nil }
