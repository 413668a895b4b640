package agent

import (
	"testing"

	"gemini/internal/ckpt"
	"gemini/internal/cloud"
	"gemini/internal/cluster"
	"gemini/internal/placement"
	"gemini/internal/simclock"
	"gemini/internal/statemgr"
)

// Data-plane integration: the live control plane moves real shard bytes
// through every recovery path, fingerprint-verified. The recovery
// workflow panics on any integrity violation, so these tests assert the
// end state; a verification failure would abort the run loudly.

const dpShard = 4096

func newDataPlaneFixture(t *testing.T, n, m int) *fixture {
	t.Helper()
	engine := simclock.NewEngine()
	clus := cluster.MustNew(n, cluster.MustInstance("p4d.24xlarge"), engine.Now)
	p := placement.MustMixed(n, m)
	ck := ckpt.MustNewEngine(p, dpShard)
	op := cloud.MustNewOperator(engine, cloud.DefaultConfig())
	sys, err := NewSystem(engine, clus, ck, op, DefaultOptions(iterTime))
	if err != nil {
		t.Fatal(err)
	}
	sys.SetDataPlane(statemgr.MustNew(p, dpShard, 77))
	return &fixture{engine: engine, clus: clus, ck: ck, op: op, sys: sys, log: sys.Log()}
}

func TestDataPlaneHealthyTraining(t *testing.T) {
	f := newDataPlaneFixture(t, 4, 2)
	f.sys.Start()
	f.engine.Run(simclock.Time(8*iterTime + 5))
	if f.sys.Iteration() != 8 {
		t.Fatalf("iteration %d, want 8", f.sys.Iteration())
	}
	if err := f.sys.data.VerifyConsistent(8); err != nil {
		t.Fatalf("live state inconsistent: %v", err)
	}
}

func TestDataPlaneSoftwareRecoveryVerifiesBytes(t *testing.T) {
	f := newDataPlaneFixture(t, 4, 2)
	f.sys.Start()
	f.engine.At(simclock.Time(5*iterTime+10), func() {
		f.sys.InjectFailure(2, cluster.SoftwareFailed)
	})
	f.engine.Run(simclock.Time(40 * iterTime))
	if f.sys.Recoveries() != 1 {
		t.Fatalf("%d recoveries, want 1", f.sys.Recoveries())
	}
	// Training resumed past the rollback point and the data plane agrees
	// with the control plane's iteration counter.
	if err := f.sys.data.VerifyConsistent(f.sys.Iteration()); err != nil {
		t.Fatalf("post-recovery state: %v", err)
	}
}

func TestDataPlaneHardwareRecoveryVerifiesBytes(t *testing.T) {
	f := newDataPlaneFixture(t, 4, 2)
	f.sys.Start()
	f.engine.At(simclock.Time(4*iterTime+10), func() {
		f.sys.InjectFailure(1, cluster.HardwareFailed)
	})
	f.engine.Run(simclock.Time(50 * iterTime))
	if f.sys.Recoveries() != 1 {
		t.Fatalf("%d recoveries, want 1", f.sys.Recoveries())
	}
	if err := f.sys.data.VerifyConsistent(f.sys.Iteration()); err != nil {
		t.Fatalf("post-recovery state: %v", err)
	}
	if f.clus.Machine(1).Incarnation != 1 {
		t.Fatal("machine not replaced")
	}
}

func TestDataPlaneGroupLossRemoteFallbackVerifiesBytes(t *testing.T) {
	f := newDataPlaneFixture(t, 4, 2)
	f.sys.SetRemoteEvery(10)
	f.sys.Start()
	f.engine.At(simclock.Time(25*iterTime+10), func() {
		f.sys.InjectFailure(2, cluster.HardwareFailed)
		f.sys.InjectFailure(3, cluster.HardwareFailed)
	})
	f.engine.Run(simclock.Time(70 * iterTime))
	if f.sys.Recoveries() != 1 {
		t.Fatalf("%d recoveries, want 1", f.sys.Recoveries())
	}
	rec, ok := f.log.Last("recovery-complete")
	if !ok {
		t.Fatal("no recovery")
	}
	_ = rec
	// The fallback loaded the remote tier (iteration 20) and training
	// moved on; bytes must still verify at the current iteration.
	if err := f.sys.data.VerifyConsistent(f.sys.Iteration()); err != nil {
		t.Fatalf("post-fallback state: %v", err)
	}
	if f.sys.Iteration() <= 20 {
		t.Fatalf("training did not progress past the fallback point: %d", f.sys.Iteration())
	}
}

func TestSetDataPlaneRejectsMismatch(t *testing.T) {
	f := newFixture(t, 4, 2, cloud.DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched data plane accepted")
		}
	}()
	f.sys.SetDataPlane(statemgr.MustNew(placement.MustMixed(6, 2), dpShard, 1))
}
