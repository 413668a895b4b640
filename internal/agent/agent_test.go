package agent

import (
	"strings"
	"testing"

	"gemini/internal/ckpt"
	"gemini/internal/cloud"
	"gemini/internal/cluster"
	"gemini/internal/failure"
	"gemini/internal/placement"
	"gemini/internal/simclock"
	"gemini/internal/trace"
)

const iterTime = 60 * simclock.Second

type fixture struct {
	engine *simclock.Engine
	clus   *cluster.Cluster
	ck     *ckpt.Engine
	op     *cloud.Operator
	sys    *System
	log    *trace.Log
}

func newFixture(t *testing.T, n, m int, cloudCfg cloud.Config) *fixture {
	t.Helper()
	engine := simclock.NewEngine()
	clus := cluster.MustNew(n, cluster.MustInstance("p4d.24xlarge"), engine.Now)
	ck := ckpt.MustNewEngine(placement.MustMixed(n, m), 75e9)
	op := cloud.MustNewOperator(engine, cloudCfg)
	sys, err := NewSystem(engine, clus, ck, op, DefaultOptions(iterTime))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return &fixture{engine: engine, clus: clus, ck: ck, op: op, sys: sys, log: sys.Log()}
}

func allHealthy(f *fixture) func(int) bool {
	return func(rank int) bool { return f.clus.Machine(rank).Healthy() }
}

func TestHealthyTrainingAdvances(t *testing.T) {
	f := newFixture(t, 4, 2, cloud.DefaultConfig())
	f.sys.Start()
	f.engine.Run(simclock.Time(10*iterTime + 5))
	if got := f.sys.Iteration(); got != 10 {
		t.Fatalf("iteration %d after 10 iteration times, want 10", got)
	}
	v, ok := f.ck.ConsistentVersion(allHealthy(f))
	if !ok || v != 10 {
		t.Fatalf("consistent version %d/%v, want 10", v, ok)
	}
	if f.sys.RootRank() != 0 {
		t.Fatalf("root rank %d, want 0", f.sys.RootRank())
	}
	if f.sys.Recoveries() != 0 {
		t.Fatal("recoveries counted without failures")
	}
}

func TestSoftwareFailureRecoversFromLocal(t *testing.T) {
	f := newFixture(t, 4, 2, cloud.DefaultConfig())
	f.sys.Start()
	f.engine.At(simclock.Time(5*iterTime+10), func() {
		f.sys.InjectFailure(2, cluster.SoftwareFailed)
	})
	f.engine.Run(simclock.Time(30 * iterTime))
	if f.sys.Recoveries() != 1 {
		t.Fatalf("%d recoveries, want 1", f.sys.Recoveries())
	}
	// Detection happened within lease TTL + check interval.
	det, ok := f.log.Last("failure-detected")
	if !ok {
		t.Fatal("no detection event")
	}
	lag := det.At.Sub(simclock.Time(5*iterTime + 10))
	if lag > f.sys.opts.LeaseTTL+2*f.sys.opts.CheckInterval {
		t.Fatalf("detection lag %v exceeds lease TTL + checks", lag)
	}
	// Recovery resumed at iteration 5 (the last committed checkpoint).
	rec, ok := f.log.Last("recovery-complete")
	if !ok {
		t.Fatal("no recovery-complete event")
	}
	if !strings.Contains(rec.Detail, "iteration 5") {
		t.Fatalf("recovery detail %q, want resume at iteration 5", rec.Detail)
	}
	// Software recovery retrieves locally — no replacement events.
	if evs := f.log.Filter("replaced"); len(evs) != 0 {
		t.Fatalf("software failure triggered %d replacements", len(evs))
	}
	ret, _ := f.log.Last("retrieved")
	if !strings.Contains(ret.Detail, "from local") {
		t.Fatalf("retrieval detail %q, want local source", ret.Detail)
	}
	// Total downtime ≈ detection + serialization + warmup ≈ 7 minutes.
	down := rec.At.Sub(det.At)
	if down < 5*simclock.Minute || down > 9*simclock.Minute {
		t.Fatalf("software recovery took %v, want ≈7 min (§7.3)", down)
	}
	// Training continued after recovery.
	if f.sys.Iteration() <= 5 {
		t.Fatalf("training did not resume: iteration %d", f.sys.Iteration())
	}
	if !f.sys.Training() {
		t.Fatal("system not training after recovery")
	}
}

func TestHardwareFailureReplacesAndFetchesFromPeer(t *testing.T) {
	f := newFixture(t, 4, 2, cloud.DefaultConfig())
	f.sys.Start()
	f.engine.At(simclock.Time(3*iterTime+10), func() {
		f.sys.InjectFailure(1, cluster.HardwareFailed)
	})
	f.engine.Run(simclock.Time(40 * iterTime))
	if f.sys.Recoveries() != 1 {
		t.Fatalf("%d recoveries, want 1", f.sys.Recoveries())
	}
	if evs := f.log.Filter("replaced"); len(evs) != 1 {
		t.Fatalf("%d replacement events, want 1", len(evs))
	}
	if f.clus.Machine(1).Incarnation != 1 {
		t.Fatalf("replacement incarnation %d, want 1", f.clus.Machine(1).Incarnation)
	}
	ret, _ := f.log.Last("retrieved")
	if !strings.Contains(ret.Detail, "from peer") {
		t.Fatalf("retrieval detail %q, want peer source", ret.Detail)
	}
	// Hardware recovery ≈ 12 min: detection + serialize + replace (4–7m)
	// + retrieval + warmup.
	det, _ := f.log.Last("failure-detected")
	rec, _ := f.log.Last("recovery-complete")
	down := rec.At.Sub(det.At)
	if down < 10*simclock.Minute || down > 15*simclock.Minute {
		t.Fatalf("hardware recovery took %v, want ≈12 min (§7.3)", down)
	}
	// The replaced machine's local replica was restored.
	if _, ok := f.ck.Completed(1, 1); !ok {
		t.Fatal("replaced machine has no restored local replica")
	}
	// Training resumed and checkpoints are consistent again.
	v, ok := f.ck.ConsistentVersion(allHealthy(f))
	if !ok || v < 3 {
		t.Fatalf("post-recovery consistent version %d/%v", v, ok)
	}
}

func TestStandbyMachinesShortenHardwareRecovery(t *testing.T) {
	slow := newFixture(t, 4, 2, cloud.DefaultConfig())
	cfgFast := cloud.DefaultConfig()
	cfgFast.Standby = 1
	fast := newFixture(t, 4, 2, cfgFast)
	for _, f := range []*fixture{slow, fast} {
		f.sys.Start()
		f.engine.At(simclock.Time(2*iterTime+10), func() {
			f.sys.InjectFailure(3, cluster.HardwareFailed)
		})
		f.engine.Run(simclock.Time(40 * iterTime))
	}
	detS, _ := slow.log.Last("failure-detected")
	recS, _ := slow.log.Last("recovery-complete")
	detF, _ := fast.log.Last("failure-detected")
	recF, _ := fast.log.Last("recovery-complete")
	slowDown := recS.At.Sub(detS.At)
	fastDown := recF.At.Sub(detF.At)
	if fastDown >= slowDown {
		t.Fatalf("standby recovery %v not faster than ASG %v", fastDown, slowDown)
	}
	if slowDown-fastDown < 3*simclock.Minute {
		t.Fatalf("standby saved only %v, want most of the 4–7 min provisioning", slowDown-fastDown)
	}
}

func TestWholeGroupLossFallsBackToRemote(t *testing.T) {
	f := newFixture(t, 4, 2, cloud.DefaultConfig())
	f.sys.SetRemoteEvery(10)
	f.sys.Start()
	// Fail both members of group {2,3} at once, long after a remote
	// checkpoint at iteration 20.
	f.engine.At(simclock.Time(25*iterTime+10), func() {
		f.sys.InjectFailure(2, cluster.HardwareFailed)
		f.sys.InjectFailure(3, cluster.HardwareFailed)
	})
	f.engine.Run(simclock.Time(60 * iterTime))
	if f.sys.Recoveries() != 1 {
		t.Fatalf("%d recoveries, want 1", f.sys.Recoveries())
	}
	ret, _ := f.log.Last("retrieved")
	if !strings.Contains(ret.Detail, "from remote") {
		t.Fatalf("retrieval detail %q, want remote fallback", ret.Detail)
	}
	rec, _ := f.log.Last("recovery-complete")
	if !strings.Contains(rec.Detail, "iteration 20") {
		t.Fatalf("recovery detail %q, want rollback to remote iteration 20", rec.Detail)
	}
	// All machines reseeded; training resumes consistently.
	v, ok := f.ck.ConsistentVersion(allHealthy(f))
	if !ok || v < 20 {
		t.Fatalf("post-fallback consistent version %d/%v", v, ok)
	}
}

func TestCrossGroupSimultaneousFailuresStayInCPUMemory(t *testing.T) {
	f := newFixture(t, 4, 2, cloud.DefaultConfig())
	f.sys.Start()
	f.engine.At(simclock.Time(5*iterTime+10), func() {
		f.sys.InjectFailure(1, cluster.HardwareFailed) // group {0,1}
		f.sys.InjectFailure(2, cluster.HardwareFailed) // group {2,3}
	})
	f.engine.Run(simclock.Time(60 * iterTime))
	ret, _ := f.log.Last("retrieved")
	if !strings.Contains(ret.Detail, "from peer") {
		t.Fatalf("retrieval detail %q, want peer recovery for cross-group failures", ret.Detail)
	}
}

func TestRootFailurePromotesNewRoot(t *testing.T) {
	f := newFixture(t, 4, 2, cloud.DefaultConfig())
	f.sys.Start()
	if f.sys.RootRank() != 0 {
		t.Fatalf("initial root %d, want 0", f.sys.RootRank())
	}
	f.engine.At(simclock.Time(4*iterTime+10), func() {
		f.sys.InjectFailure(0, cluster.HardwareFailed)
	})
	f.engine.Run(simclock.Time(60 * iterTime))
	if f.sys.RootRank() == 0 {
		t.Fatal("root rank still 0 after root machine death")
	}
	if evs := f.log.Filter("failover"); len(evs) == 0 {
		t.Fatal("no failover event recorded")
	}
	if f.sys.Recoveries() != 1 {
		t.Fatalf("%d recoveries, want 1 (the dead ex-root)", f.sys.Recoveries())
	}
	if !f.sys.Training() {
		t.Fatal("training did not resume under the new root")
	}
	if f.clus.Machine(0).Incarnation != 1 {
		t.Fatal("ex-root machine was not replaced")
	}
}

func TestSequentialFailuresAllRecover(t *testing.T) {
	f := newFixture(t, 6, 2, cloud.DefaultConfig())
	f.sys.Start()
	kinds := []cluster.MachineState{cluster.SoftwareFailed, cluster.HardwareFailed, cluster.SoftwareFailed}
	for i, kind := range kinds {
		rank := (i*2 + 1) % 6
		at := simclock.Time((10 + 40*i)) * simclock.Time(iterTime)
		kind := kind
		f.engine.At(at+10, func() { f.sys.InjectFailure(rank, kind) })
	}
	f.engine.Run(simclock.Time(140 * iterTime))
	if f.sys.Recoveries() != 3 {
		t.Fatalf("%d recoveries, want 3", f.sys.Recoveries())
	}
	if !f.sys.Training() {
		t.Fatal("training stopped")
	}
	if f.sys.Iteration() < 100 {
		t.Fatalf("iteration %d, training barely progressed", f.sys.Iteration())
	}
}

func TestFailureDuringRecoveryHandledAfterward(t *testing.T) {
	// A second machine dies while the first recovery is in flight; the
	// root agent must finish the first recovery and then detect and
	// recover the second failure.
	f := newFixture(t, 6, 2, cloud.DefaultConfig())
	f.sys.Start()
	f.engine.At(simclock.Time(5*iterTime+10), func() {
		f.sys.InjectFailure(2, cluster.HardwareFailed)
	})
	// ~2 minutes later, mid-recovery (serialization + replacement take
	// longer than that), another machine dies.
	f.engine.At(simclock.Time(5*iterTime+10+120), func() {
		f.sys.InjectFailure(4, cluster.SoftwareFailed)
	})
	f.engine.Run(simclock.Time(80 * iterTime))
	if f.sys.Recoveries() != 2 {
		t.Fatalf("%d recoveries, want 2 (sequential handling)", f.sys.Recoveries())
	}
	if !f.sys.Training() {
		t.Fatal("training did not resume after cascaded failures")
	}
	if !f.clus.Machine(2).Healthy() || !f.clus.Machine(4).Healthy() {
		t.Fatal("machines not healthy after recovery")
	}
}

func TestSimultaneousFailuresGroupIntoOneRecovery(t *testing.T) {
	// Two machines die within one heartbeat window (different groups):
	// the root detects both missing heartbeats in one health check and
	// runs a single recovery covering both.
	f := newFixture(t, 6, 2, cloud.DefaultConfig())
	f.sys.Start()
	f.engine.At(simclock.Time(5*iterTime+10), func() {
		f.sys.InjectFailure(1, cluster.HardwareFailed)
		f.sys.InjectFailure(3, cluster.HardwareFailed)
	})
	f.engine.Run(simclock.Time(60 * iterTime))
	if f.sys.Recoveries() != 1 {
		t.Fatalf("%d recoveries, want 1 grouped recovery", f.sys.Recoveries())
	}
	if evs := f.log.Filter("replaced"); len(evs) != 2 {
		t.Fatalf("%d replacements, want 2", len(evs))
	}
	det := f.log.Filter("failure-detected")
	if len(det) != 1 || !strings.Contains(det[0].Detail, "hardware: 2") {
		t.Fatalf("detection events %+v, want one covering both", det)
	}
}

func TestOptionsValidation(t *testing.T) {
	engine := simclock.NewEngine()
	clus := cluster.MustNew(4, cluster.MustInstance("p4d.24xlarge"), engine.Now)
	ck := ckpt.MustNewEngine(placement.MustMixed(4, 2), 1)
	op := cloud.MustNewOperator(engine, cloud.DefaultConfig())
	bad := []func(*Options){
		func(o *Options) { o.HeartbeatInterval = 0 },
		func(o *Options) { o.LeaseTTL = o.HeartbeatInterval },
		func(o *Options) { o.CheckInterval = -1 },
		func(o *Options) { o.IterationTime = 0 },
		func(o *Options) { o.RetrievalPeerBandwidth = 0 },
		func(o *Options) { o.RetrievalRemoteBandwidth = 0 },
		func(o *Options) { o.SerializeTime = -1 },
		func(o *Options) { o.WarmupTime = -1 },
	}
	for i, mutate := range bad {
		opts := DefaultOptions(iterTime)
		mutate(&opts)
		if _, err := NewSystem(engine, clus, ck, op, opts); err == nil {
			t.Errorf("bad options %d accepted", i)
		}
	}
	// Mismatched sizes rejected.
	small := ckpt.MustNewEngine(placement.MustMixed(3, 1), 1)
	if _, err := NewSystem(engine, clus, small, op, DefaultOptions(iterTime)); err == nil {
		t.Error("mismatched cluster/placement accepted")
	}
	sys, err := NewSystem(engine, clus, ck, op, DefaultOptions(iterTime))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("SetRemoteEvery(0) did not panic")
		}
	}()
	sys.SetRemoteEvery(0)
}

func TestLongevityManyRandomFailures(t *testing.T) {
	// A multi-day run with a Poisson failure schedule: every failure —
	// software or hardware, sometimes near-simultaneous, sometimes
	// hitting the root — must be detected and recovered, and training
	// must keep making progress throughout.
	f := newFixture(t, 8, 2, cloud.DefaultConfig())
	f.sys.SetRemoteEvery(50)
	f.sys.Start()
	horizon := 3 * simclock.Day
	model := failure.Model{PerInstancePerDay: 0.5, HardwareFraction: 0.5} // 4 failures/day on 8 machines
	schedule, err := model.Generate(8, horizon, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(schedule) < 5 {
		t.Fatalf("schedule too light for a longevity test: %d events", len(schedule))
	}
	for _, ev := range schedule {
		ev := ev
		f.engine.At(ev.At, func() { f.sys.InjectFailure(ev.Rank, ev.Kind) })
	}
	f.engine.Run(simclock.Time(horizon))

	if !f.sys.Training() && f.sys.Recoveries() == 0 {
		t.Fatal("system wedged without any recovery")
	}
	if f.sys.Recoveries() == 0 {
		t.Fatal("no recoveries despite injected failures")
	}
	// Expected productive iterations: ≈ horizon/iterTime minus recovery
	// downtime; demand at least half to prove sustained progress.
	minIters := int64(horizon.Seconds() / iterTime.Seconds() / 2)
	if f.sys.Iteration() < minIters {
		t.Fatalf("only %d iterations over 3 days with %d recoveries, want ≥ %d",
			f.sys.Iteration(), f.sys.Recoveries(), minIters)
	}
	// A root must exist and all machines must be healthy at the end
	// (unless a failure landed in the final recovery window).
	if f.sys.RootRank() < 0 {
		t.Fatal("no root at the end of the run")
	}
	t.Logf("longevity: %d failures injected, %d recoveries, iteration %d",
		len(schedule), f.sys.Recoveries(), f.sys.Iteration())
}

func TestInjectFailureIdempotent(t *testing.T) {
	f := newFixture(t, 4, 2, cloud.DefaultConfig())
	f.sys.Start()
	f.engine.At(100, func() {
		f.sys.InjectFailure(1, cluster.SoftwareFailed)
		f.sys.InjectFailure(1, cluster.SoftwareFailed) // no-op
	})
	f.engine.Run(simclock.Time(30 * iterTime))
	if f.sys.Recoveries() != 1 {
		t.Fatalf("%d recoveries after duplicate injection, want 1", f.sys.Recoveries())
	}
}
