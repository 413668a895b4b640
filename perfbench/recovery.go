package main

// The recovery workload: the agent control plane (core.NewJob ->
// RecoverySystem -> chaos.Arm -> Start -> Engine.Run) for GPT-2 100B on
// p4d machines, under a seeded fault schedule that mixes machine faults
// (a hardware crash, a software crash, a correlated crash group) with
// control-plane faults (a partition, a KV-store outage, a straggler,
// lease jitter). Every registered strategy runs once per round against
// the same schedule, one simulated minute per step.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"gemini/internal/agent"
	"gemini/internal/chaos"
	"gemini/internal/cloud"
	"gemini/internal/cluster"
	"gemini/internal/core"
	"gemini/internal/derive"
	"gemini/internal/kvstore"
	"gemini/internal/simclock"
	"gemini/internal/strategy"
)

const kvProbeRounds = 20 // heartbeat rounds and NextExpiry calls timed per traced round

type recovery struct {
	spec       core.JobSpec // Faults set; Strategy set per run
	minutes    int
	strategies []string
	crashes    []chaos.Event // the machine faults, for the checks
}

func newRecovery(cfg config) (*recovery, error) {
	n := cfg.size.machines
	sched, err := recoverySchedule(rand.New(rand.NewSource(cfg.seed)), n)
	if err != nil {
		return nil, err
	}
	w := &recovery{
		spec: core.JobSpec{
			Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: n, Faults: sched,
		},
		minutes:    cfg.size.minutes,
		strategies: strategy.Names(),
	}
	for _, ev := range sched {
		if ev.Kind == chaos.KindCrash || ev.Kind == chaos.KindCorrelatedCrash {
			w.crashes = append(w.crashes, ev)
		}
	}
	if last := w.crashes[len(w.crashes)-1].At; float64(last) >= float64(w.minutes*60)-20*60 {
		return nil, fmt.Errorf("horizon of %d minutes leaves no room to recover from the crash at %v", w.minutes, last)
	}
	return w, nil
}

// recoverySchedule draws the fault schedule: each fault's time within
// its window, its ranks and its severity come from the seed. Machine
// crashes land in the first quarter hour, partly inside one another's
// recoveries, so the slowest strategy still recovers from all of them
// well before the horizon.
func recoverySchedule(rng *rand.Rand, n int) (chaos.Schedule, error) {
	minute := func(lo, hi float64) simclock.Time {
		return simclock.Time((lo + rng.Float64()*(hi-lo)) * 60)
	}
	ranks := rng.Perm(n) // distinct ranks, handed out in order
	next := func(k int) []int {
		out := append([]int(nil), ranks[:k]...)
		ranks = ranks[k:]
		return out
	}
	b := chaos.NewBuilder().
		LeaseJitter(minute(0.5, 1.5), simclock.Duration(1+2*rng.Float64())*simclock.Second).
		Crash(minute(3, 5), next(1)[0], cluster.HardwareFailed).
		KVOutage(minute(6, 7), simclock.Duration(60+60*rng.Float64())*simclock.Second).
		Crash(minute(8, 9), next(1)[0], cluster.SoftwareFailed).
		Partition(minute(10, 11), simclock.Duration(2+2*rng.Float64())*simclock.Minute, next(2+rng.Intn(2))...).
		Straggler(minute(10, 11), 5*simclock.Minute, next(1)[0], 0.25+0.25*rng.Float64()).
		CrashGroup(minute(12, 13), cluster.HardwareFailed, next(2+rng.Intn(3))...)
	return b.Build(n)
}

func (w *recovery) setup(rec *recorder) (map[string]float64, error) {
	derive.Shared().Clear()
	spec := w.spec
	spec.Strategy = w.strategies[0]
	rec.begin("core.newjob")
	if rec != nil {
		rec.begin("derive.build")
		_, err := derive.Shared().Get(spec.CacheKey())
		rec.end()
		if err != nil {
			return nil, err
		}
	}
	job, err := core.NewJob(spec)
	rec.end()
	if err != nil {
		return nil, err
	}
	rec.begin("agent.assemble")
	_, sys, err := job.RecoverySystem(cloud.DefaultConfig())
	if err == nil {
		sys.Start()
	}
	rec.end()
	if err != nil || rec == nil {
		return nil, err
	}
	st := rec.selfTimes()
	return map[string]float64{
		"core.newjob_ms":    ms(st["core.newjob"]),
		"derive.build_ms":   ms(st["derive.build"]),
		"agent.assemble_ms": ms(st["agent.assemble"]),
	}, nil
}

// engineStats is what a traced run observes of the engines it steps.
type engineStats struct {
	events, queuePeak   int
	stepping, recovHost time.Duration
	watchEvents         int
}

func (w *recovery) round(rec *recorder, chk *checker) (roundResult, error) {
	var rr roundResult
	var es engineStats
	var allocObjects uint64
	digest := sha256.New()
	lv := map[string]float64{}
	m0 := readMem()
	t0 := time.Now()
	for _, name := range w.strategies {
		spec := w.spec
		spec.Strategy = name
		rec.begin("core.newjob")
		job, err := core.NewJob(spec)
		rec.end()
		if err != nil {
			return rr, err
		}
		rec.begin("agent.assemble")
		engine, sys, err := job.RecoverySystem(cloud.DefaultConfig())
		if err != nil {
			rec.end()
			return rr, err
		}
		if rec != nil {
			sys.Store().Watch("", func(kvstore.Event) { es.watchEvents++ })
		}
		sys.Start()
		rec.end()

		var hostBySecond []time.Duration
		if rec != nil {
			hostBySecond = make([]time.Duration, w.minutes*60+1)
		}
		a0 := readMem().objects
		for m := 1; m <= w.minutes; m++ {
			until := simclock.Time(m * 60)
			ts := time.Now()
			if rec == nil {
				engine.Run(until)
			} else {
				rec.begin("simclock.run")
				stepTraced(engine, until, hostBySecond, &es)
				rec.end()
			}
			rr.steps = append(rr.steps, time.Since(ts).Seconds())
		}
		allocObjects += readMem().objects - a0
		w.check(chk, name, sys)
		fmt.Fprintf(digest, "%s\n", outcome(sys))
		if rec != nil {
			addOutcome(lv, sys)
			recovering, total := recoveringHost(hostBySecond, sys.WastedEvents())
			es.recovHost += recovering
			es.stepping += total
		}
	}
	rr.wall = time.Since(t0)
	rr.alloc = readMem().bytes - m0.bytes
	rr.simS = float64(len(w.strategies)*w.minutes) * 60
	rr.digest = hex.EncodeToString(digest.Sum(nil))[:16]
	if rec != nil {
		st := rec.selfTimes()
		lv["simclock.events"] = float64(es.events)
		lv["simclock.queue_peak"] = float64(es.queuePeak)
		lv["simclock.event_us"] = st["simclock.run"].Seconds() / float64(es.events) * 1e6
		lv["simclock.step_ms_p99"] = quantile(rec.durations("simclock.run"), 0.99) * 1e3
		lv["simclock.allocs_per_event"] = float64(allocObjects) / float64(es.events)
		lv["kvstore.watch_events"] = float64(es.watchEvents)
		lv["agent.recovering_host_share"] = es.recovHost.Seconds() / es.stepping.Seconds()
		hb, ne, err := w.probeKV(rec)
		if err != nil {
			return rr, err
		}
		lv["kvstore.heartbeat_round_us"] = hb
		lv["kvstore.next_expiry_us"] = ne
		rr.layers = lv
	}
	return rr, nil
}

// stepTraced advances the engine to until one event at a time, which
// lets it see the queue depth after every event and charge each event's
// host time to the simulated second it fired in.
func stepTraced(engine *simclock.Engine, until simclock.Time, hostBySecond []time.Duration, es *engineStats) {
	prev := time.Now()
	for engine.PeekTime() <= until {
		engine.Step()
		now := time.Now()
		hostBySecond[int(engine.Now())] += now.Sub(prev)
		prev = now
		es.events++
		es.queuePeak = max(es.queuePeak, engine.Len())
	}
}

// recoveringHost splits a run's stepping host time by whether a
// recovery was in progress: between a failure's detection and the
// resumption of training.
func recoveringHost(hostBySecond []time.Duration, events []agent.WastedEvent) (recovering, total time.Duration) {
	for sec, d := range hostBySecond {
		total += d
		for _, ev := range events {
			if t := simclock.Time(sec); t.Add(1) > ev.Detected && t < ev.Resumed {
				recovering += d
				break
			}
		}
	}
	return recovering, total
}

// check asserts that every injected crash was recovered, that every
// detected failure's recovery completed by the horizon, and that
// training advanced past the iteration the last recovery resumed from.
func (w *recovery) check(chk *checker, name string, sys *agent.System) {
	events := sys.WastedEvents()
	recovered := map[int]bool{}
	for _, ev := range events {
		for _, r := range ev.Ranks {
			recovered[r] = true
		}
	}
	for _, ev := range w.crashes {
		for _, r := range ev.Ranks {
			chk.check(recovered[r], "%s: rank %d crashed at %v and was never recovered", name, r, ev.At)
		}
	}
	detected := len(sys.Log().Filter("failure-detected"))
	chk.check(detected == sys.Recoveries(), "%s: %d failures detected, %d recoveries completed by the horizon", name, detected, sys.Recoveries())
	if len(events) > 0 {
		from := events[len(events)-1].Version
		chk.check(sys.Iteration() > from, "%s: iteration %d did not advance past %d, where training resumed", name, sys.Iteration(), from)
	}
}

// outcome renders a run's simulated results for the digest.
func outcome(sys *agent.System) string {
	var b strings.Builder
	tr := sys.Traffic()
	fmt.Fprintf(&b, "%s it=%d rec=%d root=%d rev=%d traffic=%x/%x/%x log=%d",
		sys.Strategy().Name(), sys.Iteration(), sys.Recoveries(), sys.RootRank(), sys.Store().Rev(),
		tr.Replication, tr.Retrieval, tr.Remote, sys.Log().Len())
	for _, ev := range sys.WastedEvents() {
		fmt.Fprintf(&b, " [%x %x %v %s v%d lost%d]", float64(ev.Detected), float64(ev.Resumed), ev.Ranks, ev.Source, ev.Version, ev.LostIterations)
	}
	return b.String()
}

// addOutcome sums a run's simulated results into the per-layer values.
func addOutcome(lv map[string]float64, sys *agent.System) {
	lv["agent.recoveries"] += float64(sys.Recoveries())
	for _, ev := range sys.WastedEvents() {
		lv["agent.wasted_s"] += ev.Wasted().Seconds()
		lv["agent.lost_s"] += ev.TLost.Seconds()
		lv["agent.recovery_s"] += ev.TRecovery.Seconds()
	}
	tr := sys.Traffic()
	lv["agent.replication_gb"] += tr.Replication / 1e9
	lv["agent.retrieval_gb"] += tr.Retrieval / 1e9
	lv["agent.remote_gb"] += tr.Remote / 1e9
	lv["strategy.switches"] += float64(len(sys.Log().Filter("strategy-switch")))
	lv["kvstore.revisions"] += float64(sys.Store().Rev())
}

// probeKV calls the store directly at the workload's N: a heartbeat
// round (every machine's KeepAlive) and one NextExpiry, timed per call.
func (w *recovery) probeKV(rec *recorder) (roundUS, expiryUS float64, err error) {
	opts := agent.DefaultOptions(0)
	var now simclock.Time
	store := kvstore.New(func() simclock.Time { return now })
	leases := make([]kvstore.LeaseID, w.spec.Machines)
	for i := range leases {
		if leases[i], err = store.Grant(opts.LeaseTTL); err != nil {
			return 0, 0, err
		}
	}
	for i := 0; i < kvProbeRounds; i++ {
		now += simclock.Time(opts.HeartbeatInterval)
		rec.begin("kvstore.heartbeat_round")
		for _, id := range leases {
			_ = store.KeepAlive(id) // every lease is live: renewed each interval, within its TTL
		}
		rec.end()
		rec.begin("kvstore.next_expiry")
		store.NextExpiry()
		rec.end()
	}
	return median(rec.durations("kvstore.heartbeat_round")) * 1e6, median(rec.durations("kvstore.next_expiry")) * 1e6, nil
}

func (w *recovery) finish(*checker) error { return nil }
