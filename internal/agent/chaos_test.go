package agent

import (
	"strings"
	"testing"

	"gemini/internal/ckpt"
	"gemini/internal/cloud"
	"gemini/internal/cluster"
	"gemini/internal/placement"
	"gemini/internal/simclock"
)

// chaosOpts keeps chaos scenarios fast: short serialize/warmup, standby
// replacements, and a small retry budget.
func chaosOpts() Options {
	o := DefaultOptions(iterTime)
	o.SerializeTime = 10 * simclock.Second
	o.WarmupTime = 30 * simclock.Second
	o.RetryBase = 2 * simclock.Second
	o.RetryMax = 3
	return o
}

func newChaosFixture(t *testing.T, n, m int, opts Options, cloudCfg cloud.Config) *fixture {
	t.Helper()
	engine := simclock.NewEngine()
	clus := cluster.MustNew(n, cluster.MustInstance("p4d.24xlarge"), engine.Now)
	ck := ckpt.MustNewEngine(placement.MustMixed(n, m), 75e9)
	op := cloud.MustNewOperator(engine, cloudCfg)
	sys, err := NewSystem(engine, clus, ck, op, opts)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return &fixture{engine: engine, clus: clus, ck: ck, op: op, sys: sys, log: sys.Log()}
}

// A hardware failure whose only surviving replica holder is partitioned
// away: the root retries with backoff, the partition heals mid-retry,
// and recovery completes via the peer path — no remote fallback.
func TestRetryBackoffThenPeerAfterHeal(t *testing.T) {
	f := newChaosFixture(t, 4, 2, chaosOpts(), cloud.Config{Standby: 2, StandbyActivation: 10 * simclock.Second})
	f.sys.Start()
	at := simclock.Time(3*iterTime + 10)
	f.engine.At(at, func() {
		f.sys.StartPartition(3)
		f.sys.InjectFailure(2, cluster.HardwareFailed)
	})
	// Heal ~40s later: after detection (10–20s) + serialize (10s) +
	// standby replacement (10s) + a retry or two, but before the retry
	// budget (2+4+8s past replacement) runs out.
	f.engine.At(at.Add(40*simclock.Second), func() { f.sys.HealPartition() })
	f.engine.Run(simclock.Time(20 * iterTime))

	if f.sys.Recoveries() != 1 {
		t.Fatalf("%d recoveries, want 1", f.sys.Recoveries())
	}
	retries := f.log.Filter("retry-backoff")
	if len(retries) == 0 || len(retries) > 3 {
		t.Fatalf("%d retry-backoff events, want 1..3", len(retries))
	}
	if evs := f.log.Filter("fallback-remote"); len(evs) != 0 {
		t.Fatal("fell back to remote despite the heal")
	}
	ret, ok := f.log.Last("retrieved")
	if !ok || !strings.Contains(ret.Detail, "from peer") {
		t.Fatalf("retrieval %+v, want peer source", ret)
	}
	if evs := f.log.Filter("partition-heal"); len(evs) != 1 {
		t.Fatalf("%d partition-heal events, want 1", len(evs))
	}
	// Everyone is back: training advances and the healed rank is healthy.
	if !f.sys.Training() || !f.clus.Machine(3).Healthy() {
		t.Fatal("cluster did not fully rejoin after heal")
	}
}

// The partition never heals in time: retries exhaust and the root falls
// back to remote persistent storage.
func TestRetryExhaustionFallsBackToRemote(t *testing.T) {
	f := newChaosFixture(t, 4, 2, chaosOpts(), cloud.Config{Standby: 2, StandbyActivation: 10 * simclock.Second})
	f.sys.Start()
	f.sys.SetRemoteEvery(2)
	at := simclock.Time(3*iterTime + 10)
	f.engine.At(at, func() {
		f.sys.StartPartition(3)
		f.sys.InjectFailure(2, cluster.HardwareFailed)
	})
	// Heal during the long remote retrieval so rank 3 rejoins cleanly.
	f.engine.At(at.Add(3*simclock.Minute), func() { f.sys.HealPartition() })
	f.engine.Run(simclock.Time(30 * iterTime))

	if f.sys.Recoveries() != 1 {
		t.Fatalf("%d recoveries, want 1", f.sys.Recoveries())
	}
	if got := len(f.log.Filter("retry-backoff")); got != 3 {
		t.Fatalf("%d retry-backoff events, want RetryMax=3", got)
	}
	fb := f.log.Filter("fallback-remote")
	if len(fb) != 1 {
		t.Fatalf("%d fallback-remote events, want 1", len(fb))
	}
	ret, ok := f.log.Last("retrieved")
	if !ok || !strings.Contains(ret.Detail, "from remote") {
		t.Fatalf("retrieval %+v, want remote source", ret)
	}
	// Rolled back to the last remote checkpoint (multiple of 2).
	rec, _ := f.log.Last("recovery-complete")
	if !strings.Contains(rec.Detail, "iteration 2") {
		t.Fatalf("recovery detail %q, want resume at remote iteration 2", rec.Detail)
	}
}

// Partitioning the root: its lease expires, the leader key vanishes, and
// a reachable worker takes over.
func TestRootPartitionFailsOver(t *testing.T) {
	f := newChaosFixture(t, 4, 2, chaosOpts(), cloud.DefaultConfig())
	f.sys.Start()
	at := simclock.Time(2*iterTime + 10)
	f.engine.At(at, func() { f.sys.StartPartition(0) })
	f.engine.At(at.Add(5*simclock.Minute), func() { f.sys.HealPartition() })
	f.engine.Run(simclock.Time(20 * iterTime))

	fo, ok := f.log.Last("failover")
	if !ok {
		t.Fatal("no failover event after root partition")
	}
	if !strings.Contains(fo.Detail, "0 → 1") {
		t.Fatalf("failover detail %q, want root moving 0 → 1", fo.Detail)
	}
	if f.sys.RootRank() != 1 {
		t.Fatalf("root rank %d after failover, want 1", f.sys.RootRank())
	}
	if !f.sys.Training() {
		t.Fatal("training stalled after root failover")
	}
}

// A partition shorter than the root's lease TTL must be invisible: the
// old root's lease outlives the partition, no failover happens, and no
// spurious recovery is declared — the false-positive guard.
func TestRootLeaseOutlivesPartition(t *testing.T) {
	opts := chaosOpts()
	opts.LeaseTTL = 60 * simclock.Second
	f := newChaosFixture(t, 4, 2, opts, cloud.DefaultConfig())
	f.sys.Start()
	at := simclock.Time(iterTime + 10)
	f.engine.At(at, func() { f.sys.StartPartition(0) })
	f.engine.At(at.Add(30*simclock.Second), func() { f.sys.HealPartition() })
	f.engine.Run(simclock.Time(10 * iterTime))

	if evs := f.log.Filter("failover"); len(evs) != 0 {
		t.Fatalf("%d failovers for a sub-TTL partition, want 0", len(evs))
	}
	if evs := f.log.Filter("failure-detected"); len(evs) != 0 {
		t.Fatalf("%d detections for a sub-TTL partition, want 0", len(evs))
	}
	if f.sys.Recoveries() != 0 {
		t.Fatalf("%d recoveries, want 0", f.sys.Recoveries())
	}
	if f.sys.RootRank() != 0 {
		t.Fatalf("root moved to %d, want 0 to keep the lease", f.sys.RootRank())
	}
	if got := f.sys.Iteration(); got != 10 {
		t.Fatalf("iteration %d, want 10 (training never paused)", got)
	}
}

// A store outage longer than every lease TTL: leases freeze rather than
// expire, so the restored control plane sees a healthy cluster and
// declares nothing failed.
func TestKVOutageFreezesDetection(t *testing.T) {
	f := newChaosFixture(t, 4, 2, chaosOpts(), cloud.DefaultConfig())
	f.sys.Start()
	at := simclock.Time(iterTime + 10)
	f.engine.At(at, func() { f.sys.SetKVAvailable(false) })
	f.engine.At(at.Add(2*simclock.Minute), func() { f.sys.SetKVAvailable(true) })
	f.engine.Run(simclock.Time(10 * iterTime))

	if evs := f.log.Filter("failure-detected"); len(evs) != 0 {
		t.Fatalf("%d detections during/after the outage, want 0", len(evs))
	}
	if f.sys.Recoveries() != 0 {
		t.Fatalf("%d recoveries, want 0", f.sys.Recoveries())
	}
	if got := f.sys.Iteration(); got != 10 {
		t.Fatalf("iteration %d, want 10 (training unaffected by control-plane outage)", got)
	}
	outage := f.log.Filter("kv-outage")
	restore := f.log.Filter("kv-restore")
	if len(outage) != 1 || len(restore) != 1 {
		t.Fatalf("outage/restore events %d/%d, want 1/1", len(outage), len(restore))
	}
}

// A failure during a store outage is detected only after the store
// returns, then recovered normally (classification falls back to the
// cluster state because the detector's report was lost).
func TestFailureDuringKVOutageRecoversAfterRestore(t *testing.T) {
	f := newChaosFixture(t, 4, 2, chaosOpts(), cloud.Config{Standby: 2, StandbyActivation: 10 * simclock.Second})
	f.sys.Start()
	at := simclock.Time(iterTime + 10)
	f.engine.At(at, func() { f.sys.SetKVAvailable(false) })
	f.engine.At(at.Add(30*simclock.Second), func() {
		f.sys.InjectFailure(2, cluster.HardwareFailed)
	})
	f.engine.At(at.Add(2*simclock.Minute), func() { f.sys.SetKVAvailable(true) })
	f.engine.Run(simclock.Time(20 * iterTime))

	if f.sys.Recoveries() != 1 {
		t.Fatalf("%d recoveries, want 1", f.sys.Recoveries())
	}
	det, ok := f.log.Last("failure-detected")
	if !ok {
		t.Fatal("failure never detected")
	}
	if det.At < at.Add(2*simclock.Minute) {
		t.Fatalf("detection at %v, before the store was restored at %v", det.At, at.Add(2*simclock.Minute))
	}
	// Hardware classification survived the lost report: a replacement ran.
	if evs := f.log.Filter("replaced"); len(evs) != 1 {
		t.Fatalf("%d replacements, want 1 (classification fell back to cluster state)", len(evs))
	}
}

// A straggling peer slows peer retrieval proportionally.
func TestStragglerSlowsPeerRetrieval(t *testing.T) {
	recoveryTime := func(factor float64) simclock.Duration {
		f := newChaosFixture(t, 4, 2, chaosOpts(), cloud.Config{Standby: 2, StandbyActivation: 10 * simclock.Second})
		f.sys.Start()
		if factor < 1 {
			f.sys.SetStraggler(0, factor)
		}
		f.engine.At(simclock.Time(2*iterTime+10), func() {
			f.sys.InjectFailure(1, cluster.HardwareFailed)
		})
		f.engine.Run(simclock.Time(20 * iterTime))
		if f.sys.Recoveries() != 1 {
			t.Fatalf("%d recoveries, want 1", f.sys.Recoveries())
		}
		ret, ok := f.log.Last("retrieved")
		if !ok || !strings.Contains(ret.Detail, "from peer") {
			t.Fatalf("retrieval %+v, want peer source", ret)
		}
		det, _ := f.log.Last("failure-detected")
		rec, _ := f.log.Last("recovery-complete")
		return rec.At.Sub(det.At)
	}
	full := recoveryTime(1)
	slow := recoveryTime(0.5)
	// Shard is 75 GB over 50 GB/s: 1.5 s at full speed, 3 s at half.
	extra := slow - full
	if extra < simclock.Duration(1.0) || extra > simclock.Duration(2.0) {
		t.Fatalf("straggler added %v to recovery, want ≈1.5s", extra)
	}
}

// Mixed software + hardware failure: the software-failed machine must be
// restarted even though a hardware replacement is in flight (regression
// test: it used to stay down forever).
func TestMixedSoftwareHardwareFailure(t *testing.T) {
	f := newChaosFixture(t, 6, 2, chaosOpts(), cloud.Config{Standby: 2, StandbyActivation: 10 * simclock.Second})
	f.sys.Start()
	f.engine.At(simclock.Time(2*iterTime+10), func() {
		f.sys.InjectFailure(1, cluster.SoftwareFailed)
		f.sys.InjectFailure(2, cluster.HardwareFailed)
	})
	f.engine.Run(simclock.Time(20 * iterTime))

	if f.sys.Recoveries() != 1 {
		t.Fatalf("%d recoveries, want 1", f.sys.Recoveries())
	}
	for rank := 0; rank < 6; rank++ {
		if !f.clus.Machine(rank).Healthy() {
			t.Fatalf("rank %d is %v after recovery", rank, f.clus.Machine(rank).State())
		}
	}
	// Both failed machines checkpoint again: training reaches a new
	// consistent version including ranks 1 and 2.
	v, ok := f.ck.ConsistentVersion(allHealthy(f))
	if !ok || v <= 2 {
		t.Fatalf("consistent version %d/%v after mixed recovery, want > 2", v, ok)
	}
}

// Correlated failures of a whole replica group land in one detection and
// recover from remote in a single pass.
func TestCorrelatedGroupFailure(t *testing.T) {
	f := newChaosFixture(t, 6, 2, chaosOpts(), cloud.Config{Standby: 2, StandbyActivation: 10 * simclock.Second})
	f.sys.Start()
	f.sys.SetRemoteEvery(2)
	f.engine.At(simclock.Time(3*iterTime+10), func() {
		f.sys.InjectCorrelated(cluster.HardwareFailed, 2, 3)
	})
	f.engine.Run(simclock.Time(30 * iterTime))

	if evs := f.log.Filter("correlated-failure"); len(evs) != 1 {
		t.Fatalf("%d correlated-failure events, want 1", len(evs))
	}
	if f.sys.Recoveries() != 1 {
		t.Fatalf("%d recoveries, want 1", f.sys.Recoveries())
	}
	ret, _ := f.log.Last("retrieved")
	if !strings.Contains(ret.Detail, "from remote") {
		t.Fatalf("retrieval %q, want remote (whole group lost)", ret.Detail)
	}
	// No retries: the group's data is gone, waiting cannot bring it back.
	if evs := f.log.Filter("retry-backoff"); len(evs) != 0 {
		t.Fatalf("%d pointless retries for an unrecoverable group", len(evs))
	}
}

// Two hardware replacements must be requested in deterministic (rank)
// order so the operator's seeded random delays reproduce run to run.
func TestReplacementOrderDeterministic(t *testing.T) {
	run := func() []string {
		f := newChaosFixture(t, 6, 3, chaosOpts(), cloud.DefaultConfig())
		f.sys.Start()
		f.engine.At(simclock.Time(2*iterTime+10), func() {
			f.sys.InjectCorrelated(cluster.HardwareFailed, 1, 4)
		})
		f.engine.Run(simclock.Time(40 * iterTime))
		var out []string
		for _, ev := range f.log.Filter("replaced") {
			out = append(out, ev.Detail)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("replacement counts %d/%d, want 2", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replacement %d differs between runs: %q vs %q", i, a[i], b[i])
		}
	}
}

// Lease jitter must not break steady-state health checking.
func TestLeaseJitterHarmless(t *testing.T) {
	f := newChaosFixture(t, 4, 2, chaosOpts(), cloud.DefaultConfig())
	f.sys.Start()
	f.sys.SetLeaseJitter(3 * simclock.Second)
	f.engine.Run(simclock.Time(10 * iterTime))
	if f.sys.Recoveries() != 0 {
		t.Fatalf("%d recoveries under jitter alone, want 0", f.sys.Recoveries())
	}
	if got := f.sys.Iteration(); got != 10 {
		t.Fatalf("iteration %d, want 10", got)
	}
}
